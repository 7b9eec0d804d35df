package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// releaseEngines runs a kernel under each execution path that parks Proc
// goroutines: the serial baton, the parallel engine's serialized chain
// (one worker) and its worker pool.
var releaseEngines = []struct {
	name string
	run  func(k *Kernel) error
}{
	{"serial", func(k *Kernel) error { return k.Run() }},
	{"chain", func(k *Kernel) error {
		return k.RunParallel(ParallelConfig{Workers: 1, Lookahead: Microsecond})
	}},
	{"pool", func(k *Kernel) error {
		return k.RunParallel(ParallelConfig{Workers: 2, Lookahead: Microsecond})
	}},
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
// whichever way it stops and on every engine path.
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
				k := NewKernel()
				c.build(k)
				var err error
				var panicked any
				func() {
					defer func() { panicked = recover() }()
					err = eng.run(k)
				}()
				c.check(t, err, panicked)
				settleGoroutines(t, before)
			})
		}
	}
}

// TestReleaseBeforeStart covers a run that fails before dispatching any
// event: the spawned Procs never started, and must still exit.
func TestReleaseBeforeStart(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	pingForever(k)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("RunParallel accepted a zero lookahead")
			}
		}()
		k.RunParallel(ParallelConfig{Workers: 1})
	}()
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
	for _, eng := range releaseEngines {
		t.Run(eng.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			k := NewKernel()
			var recovered []any
			var reentered, afterReentry int
			d := k.Spawn("daemon", func(p *Proc) {
				defer func() {
					recovered = append(recovered, recover())
				}()
				defer func() {
					reentered++
					p.Recv() // must not dispatch: the run is over
					afterReentry++
				}()
				for {
					p.Recv()
				}
			})
			d.SetDaemon(true)
			k.Spawn("main", func(p *Proc) {
				p.Send(d, 1, Microsecond)
				p.Sleep(2 * Microsecond)
			})
			if err := eng.run(k); err != nil {
				t.Fatal(err)
			}
			events := k.Processed()
			settleGoroutines(t, before)
			if reentered != 1 || afterReentry != 0 {
				t.Fatalf("re-entering defer ran %d times, continued %d times; want 1, 0", reentered, afterReentry)
			}
			if len(recovered) != 1 || recovered[0] != nil {
				t.Fatalf("recover() in the body's defer saw %v, want one nil", recovered)
			}
			if k.Processed() != events {
				t.Fatalf("events %d -> %d after release", events, k.Processed())
			}
		})
	}
}
