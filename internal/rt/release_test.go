package rt_test

import (
	"runtime"
	"testing"
	"time"

	"presto/internal/network"
	"presto/internal/rt"
)

// settledGoroutines waits briefly for the goroutine count to fall back to
// want (the runtime retires exited goroutines asynchronously).
func settledGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want %d: the machine left Procs behind", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunConfigErrorSpawnsNothing checks that a machine whose engine
// configuration is rejected returns before spawning its 2N Procs, so the
// error path leaves no goroutine behind.
func TestRunConfigErrorSpawnsNothing(t *testing.T) {
	for _, cfg := range []rt.Config{
		{Nodes: 8, Engine: rt.EngineParallel, Workers: 9},
		{Nodes: 8, Engine: rt.EngineParallel, Workers: -1},
		{Nodes: 8, Engine: "warp"},
	} {
		before := runtime.NumGoroutine()
		m := rt.New(cfg)
		if err := m.Run(func(w *rt.Worker) { w.Barrier() }); err == nil {
			t.Fatalf("%+v: Run accepted the configuration", cfg)
		}
		if n := m.Kernel.Stats().Procs; n != 0 {
			t.Fatalf("%+v: %d procs spawned before the error", cfg, n)
		}
		settledGoroutines(t, before)
	}
}

// TestFinishedMachineInspectable checks that a finished machine's
// goroutines are gone while its state still reads: the memory hash,
// counters and report of a daemon-heavy run stay available after Run.
func TestFinishedMachineInspectable(t *testing.T) {
	net, err := network.Preset("cluster:4x8")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	m := rt.New(rt.Config{Nodes: 32, Protocol: rt.ProtoUpdate, Net: net, Aggregate: true})
	if err := m.Run(neighborProg(m, 2)); err != nil {
		t.Fatal(err)
	}
	settledGoroutines(t, before)
	if m.HashMemory() == 0 {
		t.Fatal("zero memory hash")
	}
	if c := m.Counters(); c.MsgsSent == 0 {
		t.Fatalf("no messages counted: %+v", c)
	}
	rep := m.Report()
	if rep.Kernel.Procs != 64 || len(rep.Registry.Counters) == 0 {
		t.Fatalf("report: %d procs, %d registry counters", rep.Kernel.Procs, len(rep.Registry.Counters))
	}
}
