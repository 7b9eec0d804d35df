package runpool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// atProcs runs f at each GOMAXPROCS setting, restoring the original.
func atProcs(t *testing.T, f func(t *testing.T, procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) { f(t, procs) })
	}
}

// TestOrderedTakesInIndexOrder: every result reaches take exactly once,
// in index order, and no more than GOMAXPROCS runs are ever in flight
// ahead of the first untaken result.
func TestOrderedTakesInIndexOrder(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		const n = 50
		var mu sync.Mutex
		frontier, maxAhead := 0, 0
		var got []int
		taken := Ordered(nil, n, func(i int) int {
			mu.Lock()
			if d := i - frontier + 1; d > maxAhead {
				maxAhead = d
			}
			mu.Unlock()
			return i * i
		}, func(i, v int) bool {
			if v != i*i {
				t.Errorf("take(%d) got %d", i, v)
			}
			got = append(got, i)
			mu.Lock()
			frontier = i + 1
			mu.Unlock()
			return true
		})
		if taken != n || len(got) != n {
			t.Fatalf("taken %d, got %d results; want %d", taken, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("take order %v", got)
			}
		}
		if maxAhead > procs {
			t.Fatalf("%d runs in flight ahead of the frontier, want <= %d", maxAhead, procs)
		}
	})
}

// TestOrderedStopDropsRunAhead: once take returns false, no later result
// is taken and Ordered still waits for every dispatched run.
func TestOrderedStopDropsRunAhead(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		var mu sync.Mutex
		started, finished := 0, 0
		var got []int
		taken := Ordered(nil, 40, func(i int) int {
			mu.Lock()
			started++
			mu.Unlock()
			defer func() {
				mu.Lock()
				finished++
				mu.Unlock()
			}()
			return i
		}, func(i, v int) bool {
			got = append(got, v)
			return i < 9
		})
		if taken != 10 || len(got) != 10 || got[9] != 9 {
			t.Fatalf("taken %d, results %v; want the prefix 0..9", taken, got)
		}
		mu.Lock()
		defer mu.Unlock()
		if started != finished {
			t.Fatalf("Ordered returned with %d of %d runs still in flight", started-finished, started)
		}
		if started > 10+procs {
			t.Fatalf("%d runs started for a stop at 10 with %d workers", started, procs)
		}
	})
}

// TestOrderedCancelTakesContiguousPrefix: a cancelled context stops
// dispatch, and every run that was dispatched is still taken, so the
// taken results form a contiguous prefix.
func TestOrderedCancelTakesContiguousPrefix(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var got []int
		taken := Ordered(ctx, 100, func(i int) int { return i }, func(i, v int) bool {
			got = append(got, v)
			if i == 5 {
				cancel()
			}
			return true
		})
		if taken != len(got) || taken < 6 || taken > 6+procs {
			t.Fatalf("taken %d (%d results) after a cancel at 5 with %d workers", taken, len(got), procs)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("results %v are not a contiguous prefix", got)
			}
		}
		cancel()
		if n := Ordered(ctx, 10, func(i int) int { return i }, func(int, int) bool { return true }); n != 0 {
			t.Fatalf("pre-cancelled context ran %d results", n)
		}
	})
}

// TestOrderedPanicsInTurn: a run's panic reaches the caller when that
// run's result is due, after the earlier results were taken.
func TestOrderedPanicsInTurn(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		var got []int
		func() {
			defer func() {
				if r := recover(); r != "boom 3" {
					t.Fatalf("recovered %v, want boom 3", r)
				}
			}()
			Ordered(nil, 10, func(i int) int {
				if i == 3 {
					panic(fmt.Sprintf("boom %d", i))
				}
				return i
			}, func(_, v int) bool {
				got = append(got, v)
				return true
			})
		}()
		if len(got) != 3 {
			t.Fatalf("took %v before the panic, want 0..2", got)
		}
	})
}
