// Machine-configuration tests: interconnect tiling validation and the
// host execution facts dsmrun -metrics attaches.
package rt_test

import (
	"strings"
	"testing"

	"presto/internal/network"
	"presto/internal/rt"
	"presto/internal/sim"
)

// neighborProg is a small SPMD neighbor-exchange program: every node
// writes its slot, then repeatedly reads both neighbors' slots and
// accumulates — plenty of cross-node (and, clustered, cross-group)
// protocol traffic.
func neighborProg(m *rt.Machine, iters int) rt.Program {
	n := m.Cfg.Nodes
	arr := m.NewArray1D("ring", n, 1, true)
	return func(w *rt.Worker) {
		w.WriteF64(arr.At(w.ID, 0), float64(w.ID+1))
		w.Barrier()
		for it := 0; it < iters; it++ {
			w.Phase(1, func() {
				l := w.ReadF64(arr.At((w.ID+n-1)%n, 0))
				r := w.ReadF64(arr.At((w.ID+1)%n, 0))
				w.Compute(20 * sim.Microsecond)
				w.WriteF64(arr.At(w.ID, 0), l+r)
			})
			w.Barrier()
		}
	}
}

// TestClusterTopologyValidation: the machine's node count must tile the
// clustered interconnect exactly.
func TestClusterTopologyValidation(t *testing.T) {
	net, err := network.Preset("cluster:4x2")
	if err != nil {
		t.Fatal(err)
	}
	m := rt.New(rt.Config{Nodes: 6, Net: net}) // 6 != 4x2
	if err := m.Run(func(w *rt.Worker) {}); err == nil {
		t.Fatal("6 nodes on a 4x2 cluster accepted")
	}
	odd, _ := network.Cluster(3, 2)
	m = rt.New(rt.Config{Nodes: 7, Net: odd})
	if err := m.Run(func(w *rt.Worker) {}); err == nil || !strings.Contains(err.Error(), "tile") {
		t.Fatalf("7 nodes in groups of 2 accepted: %v", err)
	}
}

// TestExecInfo pins the execution-facts surface dsmrun -metrics attaches.
func TestExecInfo(t *testing.T) {
	net, err := network.Preset("cluster:4x2")
	if err != nil {
		t.Fatal(err)
	}
	m := rt.New(rt.Config{Nodes: 8, Net: net})
	if err := m.Run(neighborProg(m, 1)); err != nil {
		t.Fatal(err)
	}
	e := m.ExecInfo()
	if e.GOMAXPROCS <= 0 || e.NumCPU <= 0 {
		t.Fatalf("host shape missing: %+v", e)
	}
	// Report itself must stay host-independent: Exec is attached by the
	// caller, never by Report.
	if m.Report().Exec != nil {
		t.Fatal("Report() filled Exec; it must stay deterministic")
	}
}
