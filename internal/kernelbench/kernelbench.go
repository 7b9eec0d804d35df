// Package kernelbench defines the simulation kernel's hot-path benchmark
// workloads in one place, so that `go test -bench` (internal/sim) and
// `paperbench -kernel-bench` (which records the committed BENCH_kernel.json)
// measure exactly the same code.
//
// Every workload spawns fresh Procs on a fresh Kernel and counts one kernel
// "operation" per loop iteration; allocation numbers therefore amortize the
// fixed setup cost over b.N and converge to the per-event hot-path cost.
package kernelbench

import (
	"fmt"
	"testing"

	"presto/internal/sim"
)

// Case is one kernel benchmark workload.
type Case struct {
	Name  string
	Bench func(b *testing.B)
	// ZeroAlloc marks a guarded hot path: the bench-regression gate
	// (paperbench -kernel-bench) fails the run if the case reports any
	// allocation per operation.
	ZeroAlloc bool
}

// Cases returns the kernel and protocol hot-path workloads in stable
// order: the simulation-kernel paths first, then the block-state
// protocol paths (protocol.go) and the analytical-predictor fast path
// (predict.go).
func Cases() []Case {
	return append([]Case{
		{"send_recv", benchSendRecv, true},
		{"send_recv_profiled", benchSendRecvProfiled, true},
		{"send_recv_chain", benchChain, true},
		{"send_recv_burst64", benchBurst, true},
		{"barrier8", benchBarrier, true},
		{"sleep_advance", benchSleep, true},
		{"fanout8", benchFanout, false},
		{"wheel_vs_heap_burst256", benchSchedBurst256, false},
		{"mesh8_serial", benchMesh, false},
	}, append(protocolCases(), append(predictCases(), scaleCases()...)...)...)
}

// RatioGuard bounds the ratio of two cases' ns/op; paperbench
// -kernel-bench fails the run when the bound is exceeded (and skips the
// guard when -kernel-filter excludes either case).
type RatioGuard struct {
	Name string // guard label in reports
	Num  string // numerator case
	Den  string // denominator case
	Max  float64
}

// RatioGuards returns the cross-case performance bounds.
//
// recorder_overhead pins the causal flight recorder's cost with the
// recorder ON (ring push per binding wake plus attribution charging) at
// 1.25x plain send_recv. Since the enabled recorder is bounded this
// tightly, the disabled recorder — the same sites reduced to nil checks —
// is necessarily a dead branch; the committed-baseline diff on send_recv
// itself guards that directly.
func RatioGuards() []RatioGuard {
	return []RatioGuard{
		{Name: "recorder_overhead", Num: "send_recv_profiled", Den: "send_recv", Max: 1.25},
	}
}

// benchSendRecv is the canonical send/recv path: two Procs ping-pong one
// message per iteration. Each op is one full round trip (two deliveries,
// two resumes).
func benchSendRecv(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	var msg any = new(struct{})
	n := b.N
	pong := k.Spawn("pong", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			d := p.Recv()
			p.Send(d.From, msg, sim.Microsecond)
		}
	})
	k.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Send(pong, msg, sim.Microsecond)
			p.Recv()
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchSendRecvProfiled is benchSendRecv with the causal flight recorder
// enabled and attribution slots attached: every delivery wake records an
// edge into the pre-allocated ring and charges the woken Proc's slot.
// Guarded zero-alloc — the recorder's steady state may not allocate —
// and ratio-guarded against plain send_recv (recorder_overhead).
func benchSendRecvProfiled(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	k.EnableRecorder(1 << 16)
	var slots [2]sim.AttrSlot
	var msg any = new(struct{})
	n := b.N
	pong := k.Spawn("pong", func(p *sim.Proc) {
		p.SetAttrSlot(&slots[0])
		for i := 0; i < n; i++ {
			d := p.Recv()
			p.Send(d.From, msg, sim.Microsecond)
		}
	})
	k.Spawn("ping", func(p *sim.Proc) {
		p.SetAttrSlot(&slots[1])
		for i := 0; i < n; i++ {
			p.Send(pong, msg, sim.Microsecond)
			p.Recv()
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchChain circulates a single token around an 8-proc ring: at every
// instant exactly one proc is runnable, so every dispatch is a direct
// proc-to-proc baton handoff (the chained-dispatch fast path) with no
// scheduler-goroutine bounce. Each op is one hop.
func benchChain(b *testing.B) {
	const procs = 8
	b.ReportAllocs()
	k := sim.NewKernel()
	var msg any = new(struct{})
	n := b.N
	ring := make([]*sim.Proc, procs)
	for i := 0; i < procs; i++ {
		i := i
		ring[i] = k.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			// Hop h is taken by proc h%procs; proc i forwards every
			// token it receives and exits once its share of n is done.
			hops := n / procs
			if i < n%procs {
				hops++
			}
			for h := 0; h < hops; h++ {
				if !(i == 0 && h == 0) {
					p.Recv()
				}
				p.Send(ring[(i+1)%procs], msg, sim.Microsecond)
			}
			if i == n%procs {
				p.Recv() // absorb the final hop's token so the ring drains
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchBurst drives the mailbox to depth 64 before the consumer drains it:
// the producer fires a burst while the consumer sleeps, so deliveries queue
// up and every Recv dequeues from a deep mailbox. A linear-time dequeue
// makes this workload quadratic in the burst size.
func benchBurst(b *testing.B) {
	const (
		burst  = 64
		window = 200 * sim.Microsecond
	)
	b.ReportAllocs()
	k := sim.NewKernel()
	var msg any = new(struct{})
	n := b.N
	cons := k.Spawn("cons", func(p *sim.Proc) {
		got := 0
		for got < n {
			p.Sleep(window) // deliveries queue but do not wake a sleeper
			for p.Pending() > 0 {
				p.Recv()
				got++
			}
		}
	})
	k.Spawn("prod", func(p *sim.Proc) {
		sent := 0
		for sent < n {
			m := burst
			if n-sent < m {
				m = n - sent
			}
			for j := 0; j < m; j++ {
				p.Send(cons, msg, sim.Microsecond)
			}
			sent += m
			p.Sleep(window) // yield so earlier bursts deliver; aligns with the consumer's next window
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchBarrier measures the barrier arrive/release path with 8 Procs.
// Each op is one barrier crossing by one Proc.
func benchBarrier(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	const procs = 8
	bar := k.NewBarrier(procs, 10*sim.Microsecond)
	n := b.N
	for i := 0; i < procs; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			for j := 0; j < n; j++ {
				p.Advance(sim.Microsecond)
				p.Wait(bar)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchSleep measures the clock-advance + self-resume path: a single Proc
// alternating Advance and Sleep, one timer event per op.
func benchSleep(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	n := b.N
	k.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Advance(100 * sim.Nanosecond)
			p.Sleep(sim.Microsecond)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchMesh is an 8-proc ring where every proc forwards a message to its
// right neighbor each round: eight Procs runnable at once, the dispatch
// pattern of a machine's nodes exchanging halos. Each op is one round
// (8 sends + 8 receives).
func benchMesh(b *testing.B) {
	const (
		procs = 8
		delay = 10 * sim.Microsecond
	)
	b.ReportAllocs()
	k := sim.NewKernel()
	var msg any = new(struct{})
	n := b.N
	ring := make([]*sim.Proc, procs)
	for i := 0; i < procs; i++ {
		i := i
		ring[i] = k.Spawn(fmt.Sprintf("m%d", i), func(p *sim.Proc) {
			for r := 0; r < n; r++ {
				p.Send(ring[(i+1)%procs], msg, delay)
				p.Recv()
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchSchedBurst256 holds a 256-deep pending-event set with scattered
// timestamps — 256 procs in staggered sleep loops, durations spanning
// past the wheel's horizon so pushes hit near buckets, the overflow heap
// and its migration path. One op runs the workload once under the
// timing wheel and once under the binary-heap reference, so the CI
// regression diff catches a slowdown in either scheduler; the two
// kernels' stats are asserted identical (the differential in miniature).
func benchSchedBurst256(b *testing.B) {
	const (
		procs  = 256
		rounds = 4
	)
	run := func(kind sim.SchedulerKind) sim.KernelStats {
		k := sim.NewKernel()
		k.UseScheduler(kind, sim.Microsecond)
		for i := 0; i < procs; i++ {
			i := i
			k.Spawn(fmt.Sprintf("t%d", i), func(p *sim.Proc) {
				for r := 0; r < rounds; r++ {
					// 1µs..~1.5ms spread: mostly near-wheel, the long
					// tail lands in overflow (wheel horizon 256µs).
					d := sim.Time(1+(i*37+r*101)%1500) * sim.Microsecond
					p.Sleep(d)
				}
			})
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		return k.Stats()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := run(sim.SchedWheel)
		h := run(sim.SchedHeap)
		if w != h {
			b.Fatalf("wheel vs heap stats diverge: %+v vs %+v", w, h)
		}
	}
}

// benchFanout has one producer broadcasting to 8 consumers per iteration,
// exercising the event queue under wider fan-out than the ping-pong case.
func benchFanout(b *testing.B) {
	const fan = 8
	b.ReportAllocs()
	k := sim.NewKernel()
	var msg any = new(struct{})
	n := b.N
	consumers := make([]*sim.Proc, fan)
	for i := range consumers {
		consumers[i] = k.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			for j := 0; j < n; j++ {
				p.Recv()
			}
		})
	}
	k.Spawn("prod", func(p *sim.Proc) {
		for j := 0; j < n; j++ {
			for _, c := range consumers {
				p.Send(c, msg, sim.Microsecond)
			}
			p.Sleep(2 * sim.Microsecond) // yield so the fan-out delivers each round
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
