package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"presto/internal/runpool/pooltest"
)

// Multi-core hosts run whole simulations side by side (internal/runpool),
// never one simulation across cores. These tests run copies of a kernel
// side by side and demand that each copy's outcome — statistics, clocks,
// observation logs, errors and panics — equals the serial run's: kernels
// share no mutable state, which is what makes the pool deterministic.

// mesh builds a deterministic message storm: n procs in a ring, each
// forwarding a counter to its right neighbor with the given delay, plus a
// barrier every third round. The returned log records every delivery.
func mesh(n, rounds int, delay Time) (*Kernel, *[]string) {
	return meshOn(NewKernel(), n, rounds, delay)
}

// meshOn builds the mesh on a kernel the caller has configured.
func meshOn(k *Kernel, n, rounds int, delay Time) (*Kernel, *[]string) {
	log := &[]string{}
	procs := make([]*Proc, n)
	bar := k.NewBarrier(n, 5*delay)
	for i := 0; i < n; i++ {
		procs[i] = k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.Advance(Time(i+1) * 100 * Nanosecond) // skew clocks
				p.Send(procs[(i+1)%n], r*n+i, delay)
				d := p.Recv()
				*log = append(*log, fmt.Sprintf("p%d r%d got %v at %v now %v", i, r, d.Msg, d.At, p.now))
				if r%3 == 2 {
					p.Wait(bar)
				}
			}
		})
	}
	return k, log
}

type runOutcome struct {
	err   error
	stats KernelStats
	times []Time
	log   []string
}

// outcomeOf runs k to completion and collects what it externalizes.
func outcomeOf(k *Kernel, log *[]string) runOutcome {
	err := k.Run()
	var times []Time
	for _, p := range k.Procs() {
		times = append(times, p.now)
	}
	return runOutcome{err: err, stats: k.Stats(), times: times, log: *log}
}

func runMesh(n, rounds int, delay Time) runOutcome {
	return outcomeOf(mesh(n, rounds, delay))
}

func assertSameOutcome(t *testing.T, serial, pooled runOutcome) {
	t.Helper()
	if fmt.Sprint(serial.err) != fmt.Sprint(pooled.err) {
		t.Fatalf("error mismatch:\nserial: %v\npooled: %v", serial.err, pooled.err)
	}
	if serial.stats != pooled.stats {
		t.Fatalf("kernel stats mismatch:\nserial: %+v\npooled: %+v", serial.stats, pooled.stats)
	}
	if !slices.Equal(serial.times, pooled.times) {
		t.Fatalf("proc final times:\nserial: %v\npooled: %v", serial.times, pooled.times)
	}
	if !slices.Equal(serial.log, pooled.log) {
		t.Fatalf("delivery logs differ (%d vs %d lines)", len(serial.log), len(pooled.log))
	}
}

// TestParallelMatchesSerialMesh runs 1, 2 and 8 copies of the mesh side
// by side; every copy must match the serial run.
func TestParallelMatchesSerialMesh(t *testing.T) {
	const (
		n      = 8
		rounds = 60
		delay  = 10 * Microsecond
	)
	serial := runMesh(n, rounds, delay)
	if serial.err != nil {
		t.Fatalf("serial run: %v", serial.err)
	}
	for _, copies := range []int{1, 2, 8} {
		for _, o := range pooltest.SideBySide(copies, func(int) runOutcome { return runMesh(n, rounds, delay) }) {
			assertSameOutcome(t, serial, o)
		}
	}
}

// TestParallelMatchesSerialTightLookahead runs four copies of the mesh
// side by side, each on a wheel whose buckets are far narrower than the
// message delay, so most buckets are empty and the cursor jumps between
// bursts. Every copy must match the serial run on the default wheel.
func TestParallelMatchesSerialTightLookahead(t *testing.T) {
	serial := runMesh(6, 40, 9*Microsecond)
	if serial.err != nil {
		t.Fatalf("serial run: %v", serial.err)
	}
	for _, o := range pooltest.SideBySide(4, func(int) runOutcome {
		k := NewKernel()
		k.UseScheduler(SchedWheel, 200*Nanosecond)
		return outcomeOf(meshOn(k, 6, 40, 9*Microsecond))
	}) {
		assertSameOutcome(t, serial, o)
	}
}

// TestParallelIntraLaneLocalMessages pairs each front proc with a local
// back proc that echoes with a delay far below the cross-pair delay;
// front procs also form a ring. Local and remote traffic interleave in
// one event queue; copies run side by side must match the serial run.
func TestParallelIntraLaneLocalMessages(t *testing.T) {
	const (
		pairs   = 4
		rounds  = 30
		localD  = 500 * Nanosecond
		remoteD = 20 * Microsecond
	)
	build := func() (*Kernel, *[]string) {
		k := NewKernel()
		log := &[]string{}
		front := make([]*Proc, pairs)
		back := make([]*Proc, pairs)
		for i := 0; i < pairs; i++ {
			back[i] = k.Spawn(fmt.Sprintf("back%d", i), func(p *Proc) {
				for r := 0; r < rounds; r++ {
					d := p.Recv()
					p.Advance(200 * Nanosecond)
					p.Send(d.From, d.Msg, localD) // local echo
				}
			})
		}
		for i := 0; i < pairs; i++ {
			front[i] = k.Spawn(fmt.Sprintf("front%d", i), func(p *Proc) {
				for r := 0; r < rounds; r++ {
					p.Send(back[i], r, localD)
					echo := p.Recv()
					p.Send(front[(i+1)%pairs], echo.Msg, remoteD)
					d := p.Recv()
					*log = append(*log, fmt.Sprintf("front%d r%d %v@%v", i, r, d.Msg, d.At))
				}
			})
		}
		return k, log
	}
	serial := outcomeOf(build())
	if serial.err != nil {
		t.Fatalf("serial: %v", serial.err)
	}
	for _, o := range pooltest.SideBySide(4, func(int) runOutcome { return outcomeOf(build()) }) {
		assertSameOutcome(t, serial, o)
	}
}

// TestParallelDeadlockDetected: each copy run side by side detects its
// own deadlock and reports it exactly as the serial run does.
func TestParallelDeadlockDetected(t *testing.T) {
	build := func() *Kernel {
		k := NewKernel()
		k.Spawn("a", func(p *Proc) { p.Recv() }) // never delivered
		k.Spawn("b", func(p *Proc) { p.Recv() })
		return k
	}
	serial := build().Run()
	var sde *DeadlockError
	if !errors.As(serial, &sde) {
		t.Fatalf("serial: want DeadlockError, got %v", serial)
	}
	for i, err := range pooltest.SideBySide(2, func(int) error { return build().Run() }) {
		var pde *DeadlockError
		if !errors.As(err, &pde) {
			t.Fatalf("copy %d: want DeadlockError, got %v", i, err)
		}
		if serial.Error() != err.Error() {
			t.Fatalf("copy %d: deadlock reports differ:\nserial: %v\npooled: %v", i, serial, err)
		}
	}
}

// TestParallelRunawayGuard: the MaxEvents guard of each copy run side by
// side counts only its own kernel's events.
func TestParallelRunawayGuard(t *testing.T) {
	build := func() *Kernel {
		k := NewKernel()
		var b *Proc
		b = k.Spawn("b", func(p *Proc) {
			for {
				d := p.Recv()
				p.Send(d.From, d.Msg, 10*Microsecond)
			}
		})
		k.Spawn("a", func(p *Proc) {
			p.Send(b, 0, 10*Microsecond)
			for {
				d := p.Recv()
				p.Send(d.From, d.Msg, 10*Microsecond)
			}
		})
		k.MaxEvents = 501
		return k
	}
	serial := build().Run()
	var sre *RunawayError
	if !errors.As(serial, &sre) {
		t.Fatalf("serial: want RunawayError, got %v", serial)
	}
	for i, err := range pooltest.SideBySide(2, func(int) error { return build().Run() }) {
		var pre *RunawayError
		if !errors.As(err, &pre) {
			t.Fatalf("copy %d: want RunawayError, got %v", i, err)
		}
		if *sre != *pre {
			t.Fatalf("copy %d: runaway mismatch: serial %+v, pooled %+v", i, *sre, *pre)
		}
	}
}

// TestParallelProcPanicPropagates: a Proc panic in a run on a pool worker
// reaches the caller with the value the serial run panics with.
func TestParallelProcPanicPropagates(t *testing.T) {
	build := func() *Kernel {
		k := NewKernel()
		var target *Proc
		target = k.Spawn("victim", func(p *Proc) {
			p.Recv()
			panic("boom in proc")
		})
		k.Spawn("sender", func(p *Proc) {
			p.Send(target, 1, 20*Microsecond)
		})
		return k
	}
	recovered := func(run func()) (r any) {
		defer func() { r = recover() }()
		run()
		return nil
	}
	s := recovered(func() { _ = build().Run() })
	p := recovered(func() {
		pooltest.SideBySide(2, func(int) error { return build().Run() })
	})
	if s == nil || p == nil {
		t.Fatalf("panic not propagated: serial %v, pooled %v", s, p)
	}
	if fmt.Sprint(s) != fmt.Sprint(p) {
		t.Fatalf("panic values differ: %v vs %v", s, p)
	}
}
