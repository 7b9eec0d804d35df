// Package runpool runs independent simulations side by side and hands
// their results back in index order, so a caller's output is the same at
// any GOMAXPROCS as its serial loop's.
//
// Each simulation is single-threaded and deterministic (internal/sim), so
// multi-core hosts are used at the run level: chaos seeds, predictor
// validation seeds. Nothing inside a run changes; only which runs overlap
// in wall-clock time does.
package runpool

import (
	"context"
	"runtime"
)

// Ordered runs run(0), run(1), …, run(n-1) on up to GOMAXPROCS workers
// and passes each result to take in index order, on the caller's
// goroutine. At most GOMAXPROCS runs are in flight ahead of the first
// result not yet taken, which bounds both the memory held by finished
// but untaken results and the work wasted past a stop.
//
// Dispatch stops once ctx (which may be nil) is done or take returns
// false. Runs already in flight complete, but their results are passed to
// take only while take keeps returning true: results past a stop are
// dropped. After a cancellation every run that was dispatched is taken,
// so the taken results are always a contiguous prefix. Ordered returns
// the number of results passed to take, once no run is left in flight.
//
// run is called concurrently and must not share mutable state between
// indices; take is never called concurrently. A run that panics panics
// the caller when its result's turn comes, as the serial loop would.
func Ordered[T any](ctx context.Context, n int, run func(i int) T, take func(i int, v T) bool) int {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers < 1 {
		return 0
	}
	// slots[i%workers] carries run(i)'s result. Index i+workers is
	// dispatched only after result i has been taken, so a slot never
	// holds two results and a send never blocks.
	slots := make([]chan outcome[T], workers)
	for i := range slots {
		slots[i] = make(chan outcome[T], 1)
	}
	next, inflight := 0, 0
	defer func() {
		for ; inflight > 0; inflight-- {
			<-slots[(next-inflight)%workers]
		}
	}()
	for i := 0; i < n; i++ {
		for next < n && next < i+workers && (ctx == nil || ctx.Err() == nil) {
			j := next
			go func() {
				var o outcome[T]
				defer func() {
					if o.panicked {
						o.panicVal = recover()
					}
					slots[j%workers] <- o
				}()
				o.panicked = true
				o.v = run(j)
				o.panicked = false
			}()
			next++
			inflight++
		}
		if i == next {
			return i // cancelled before run i was dispatched
		}
		o := <-slots[i%workers]
		inflight--
		if o.panicked {
			panic(o.panicVal)
		}
		if !take(i, o.v) {
			return i + 1
		}
	}
	return n
}

// outcome is one run's result, or the value it panicked with.
type outcome[T any] struct {
	v        T
	panicked bool
	panicVal any
}
