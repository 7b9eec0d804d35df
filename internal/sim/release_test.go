package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"presto/internal/runpool/pooltest"
)

// releaseEngines runs kernels on each goroutine arrangement a run meets:
// the caller's own goroutine (serial), one run-pool worker (chain) and
// two copies side by side on the pool (pool), where each kernel must
// release its own parked Procs. run builds its kernels with newKernel(i)
// and returns the first copy's error; a Proc panic reaches the caller.
var releaseEngines = []struct {
	name string
	run  func(newKernel func(i int) *Kernel) error
}{
	{"serial", func(nk func(int) *Kernel) error { return nk(0).Run() }},
	{"chain", func(nk func(int) *Kernel) error { return runCopies(1, nk) }},
	{"pool", func(nk func(int) *Kernel) error { return runCopies(2, nk) }},
}

// runCopies runs n kernels side by side on the run pool and returns the
// first one's error, or a mismatch if the copies stopped differently.
func runCopies(n int, nk func(int) *Kernel) error {
	errs := pooltest.SideBySide(n, func(i int) error { return nk(i).Run() })
	for i, err := range errs[1:] {
		if fmt.Sprint(err) != fmt.Sprint(errs[0]) {
			return fmt.Errorf("copy %d stopped with %v, copy 0 with %v", i+1, err, errs[0])
		}
	}
	return errs[0]
}

// settleGoroutines waits briefly for the goroutine count to fall back to
// want: released goroutines have finished their deferred calls when
// release returns, but the runtime retires them asynchronously.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after the run, want %d: parked Procs leaked", n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// pingForever spawns two Procs that exchange one message per microsecond
// until the kernel stops them.
func pingForever(k *Kernel) {
	var a, b *Proc
	a = k.Spawn("a", func(p *Proc) {
		for {
			p.Send(b, 1, Microsecond)
			p.Recv()
		}
	})
	b = k.Spawn("b", func(p *Proc) {
		for {
			d := p.Recv()
			p.Send(a, d.Msg, Microsecond)
		}
	})
}

// TestReleaseEveryStopReason checks that no run leaves a goroutine behind,
// whichever way it stops and on whichever goroutine it runs.
func TestReleaseEveryStopReason(t *testing.T) {
	cases := []struct {
		name  string
		build func(k *Kernel)
		check func(t *testing.T, err error, panicked any)
	}{
		{"drained-with-daemons", func(k *Kernel) {
			var daemons []*Proc
			for i := 0; i < 4; i++ {
				d := k.Spawn(fmt.Sprintf("d%d", i), func(p *Proc) {
					for {
						p.Recv()
						p.Advance(Nanosecond)
					}
				})
				d.SetDaemon(true)
				daemons = append(daemons, d)
			}
			k.Spawn("main", func(p *Proc) {
				for _, d := range daemons {
					p.Send(d, 1, Microsecond)
				}
				p.Sleep(10 * Microsecond)
			})
		}, func(t *testing.T, err error, panicked any) {
			if err != nil || panicked != nil {
				t.Fatalf("err = %v, panic = %v; want a clean run", err, panicked)
			}
		}},
		{"deadlock", func(k *Kernel) {
			k.Spawn("stuck", func(p *Proc) { p.Recv() })
			k.Spawn("idle", func(p *Proc) { p.Sleep(Microsecond) })
		}, func(t *testing.T, err error, panicked any) {
			var de *DeadlockError
			if !errors.As(err, &de) {
				t.Fatalf("err = %v, want DeadlockError", err)
			}
		}},
		{"runaway", func(k *Kernel) {
			k.MaxEvents = 200
			pingForever(k)
		}, func(t *testing.T, err error, panicked any) {
			var re *RunawayError
			if !errors.As(err, &re) {
				t.Fatalf("err = %v, want RunawayError", err)
			}
		}},
		{"proc-panic", func(k *Kernel) {
			pingForever(k)
			k.Spawn("bomb", func(p *Proc) {
				p.Sleep(5 * Microsecond)
				panic("boom")
			})
		}, func(t *testing.T, err error, panicked any) {
			if panicked != "boom" {
				t.Fatalf("panic = %v (err %v), want boom", panicked, err)
			}
		}},
	}
	for _, eng := range releaseEngines {
		for _, c := range cases {
			t.Run(eng.name+"/"+c.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				var err error
				var panicked any
				func() {
					defer func() { panicked = recover() }()
					err = eng.run(func(int) *Kernel {
						k := NewKernel()
						c.build(k)
						return k
					})
				}()
				c.check(t, err, panicked)
				settleGoroutines(t, before)
			})
		}
	}
}

// TestReleaseBeforeStart covers a run that fails before dispatching any
// event: Procs spawned on a kernel that already ran never start, and the
// failing Run must still end their goroutines.
func TestReleaseBeforeStart(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	k.Spawn("once", func(p *Proc) { p.Sleep(Microsecond) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	pingForever(k)
	if err := k.Run(); err == nil {
		t.Fatal("a second Run of the kernel succeeded")
	}
	settleGoroutines(t, before)
}

// TestReleaseKeepsState checks that a released machine stays inspectable:
// clocks and statistics are as the run left them.
func TestReleaseKeepsState(t *testing.T) {
	k := NewKernel()
	d := k.Spawn("daemon", func(p *Proc) {
		for {
			p.Recv()
			p.Advance(3 * Nanosecond)
		}
	})
	d.SetDaemon(true)
	k.Spawn("main", func(p *Proc) {
		p.Send(d, 1, Microsecond)
		p.Sleep(5 * Microsecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := d.Now(), Microsecond+3*Nanosecond; got != want {
		t.Fatalf("daemon clock = %v, want %v", got, want)
	}
	if st := k.Stats(); st.Deliveries != 1 || st.Procs != 2 {
		t.Fatalf("stats = %+v, want 1 delivery over 2 procs", st)
	}
	if d.state != stateBlockedRecv {
		t.Fatalf("daemon state = %v, want blocked-recv", d.state)
	}
}

// TestReleaseRunsBodyDefersOnce gives a never-finishing Proc body the
// interp.Run recover pattern plus a deferred call that tries to block
// again. Release runs each defer once, recover sees no panic, and the
// re-entry exits instead of dispatching: the kernel's counts stand.
func TestReleaseRunsBodyDefersOnce(t *testing.T) {
	// bodyDefers is one kernel's view of its daemon's deferred calls.
	type bodyDefers struct {
		k                       *Kernel
		recovered               []any
		reentered, afterReentry int
	}
	for _, eng := range releaseEngines {
		t.Run(eng.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var copies [2]bodyDefers
			err := eng.run(func(i int) *Kernel {
				c := &copies[i]
				c.k = NewKernel()
				d := c.k.Spawn("daemon", func(p *Proc) {
					defer func() {
						c.recovered = append(c.recovered, recover())
					}()
					defer func() {
						c.reentered++
						p.Recv() // must not dispatch: the run is over
						c.afterReentry++
					}()
					for {
						p.Recv()
					}
				})
				d.SetDaemon(true)
				c.k.Spawn("main", func(p *Proc) {
					p.Send(d, 1, Microsecond)
					p.Sleep(2 * Microsecond)
				})
				return c.k
			})
			if err != nil {
				t.Fatal(err)
			}
			var events [2]int64
			for i, c := range copies {
				if c.k != nil {
					events[i] = c.k.Processed()
				}
			}
			settleGoroutines(t, before)
			for i, c := range copies {
				if c.k == nil {
					continue // the engine ran fewer copies
				}
				if c.reentered != 1 || c.afterReentry != 0 {
					t.Fatalf("copy %d: re-entering defer ran %d times, continued %d times; want 1, 0", i, c.reentered, c.afterReentry)
				}
				if len(c.recovered) != 1 || c.recovered[0] != nil {
					t.Fatalf("copy %d: recover() in the body's defer saw %v, want one nil", i, c.recovered)
				}
				if c.k.Processed() != events[i] {
					t.Fatalf("copy %d: events %d -> %d after release", i, events[i], c.k.Processed())
				}
			}
		})
	}
}
