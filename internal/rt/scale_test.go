// 1024-node scale tests: the tentpole guarantee that a kilonode machine
// completes under every scheduler and storage backend with
// byte-identical results, on each hierarchical topology family.
package rt_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"presto/internal/blockstate"
	"presto/internal/check"
	"presto/internal/network"
	"presto/internal/rt"
	"presto/internal/sim"
)

// groupExchangeProg is the scale workload: every node writes its own
// slot, then reads a window of slots owned by the next group over. Each
// home's readers all sit in one remote group, so the pre-send walk owes
// several bulks to that group per phase — multi-part aggregation
// traffic, O(nodes) total work.
func groupExchangeProg(m *rt.Machine, iters int) rt.Program {
	n := m.Cfg.Nodes
	gs := m.Cfg.Net.GroupSize
	arr := m.NewArray1D("gx", n, 1, true)
	return func(w *rt.Worker) {
		w.WriteF64(arr.At(w.ID, 0), float64(w.ID+1))
		w.Barrier()
		next := (w.ID/gs + 1) % (n / gs) * gs // first node of the next group
		s := 0.0
		for it := 0; it < iters; it++ {
			w.Phase(1, func() {
				w.WriteF64(arr.At(w.ID, 0), float64(w.ID+it)+s)
				w.Compute(5 * sim.Microsecond)
			})
			w.Phase(2, func() {
				s = 0
				for j := 0; j < 6; j++ {
					s += w.ReadF64(arr.At(next+(w.ID+j)%gs, 0))
				}
				s /= float64(n)
				w.Compute(5 * sim.Microsecond)
			})
		}
	}
}

// run1024 executes prog on a 1024-node machine and returns the machine
// plus its serialized report (the fingerprint).
func run1024(t *testing.T, cfg rt.Config, prog func(*rt.Machine, int) rt.Program, iters int) (*rt.Machine, []byte) {
	t.Helper()
	m := rt.New(cfg)
	if err := m.Run(prog(m, iters)); err != nil {
		t.Fatalf("run (sched=%s storage=%s net=%v): %v",
			cfg.Sched, cfg.Storage, cfg.Net.ExpectNodes(), err)
	}
	rep, err := json.Marshal(m.Report())
	if err != nil {
		t.Fatal(err)
	}
	return m, rep
}

// TestScale1024Combos runs the full {scheduler} x {storage} matrix on an
// aggregated 1024-node two-level cluster. All four fingerprints must be
// byte-identical: schedulers and storage backends are performance knobs,
// never semantic ones.
func TestScale1024Combos(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node matrix skipped in -short")
	}
	net, err := network.Preset("cluster:16x64")
	if err != nil {
		t.Fatal(err)
	}
	base := rt.Config{Nodes: 1024, BlockSize: 32, Net: net,
		Protocol: rt.ProtoPredictive, Aggregate: true}
	var ref []byte
	var refName string
	for _, sched := range []rt.SchedKind{rt.SchedWheel, rt.SchedHeap} {
		for _, storage := range []blockstate.Kind{blockstate.Dense, blockstate.MapRef} {
			name := fmt.Sprintf("%s/%s", sched, storage)
			c := base
			c.Sched = sched
			c.Storage = storage
			m, rep := run1024(t, c, groupExchangeProg, 3)
			if ref == nil {
				ref, refName = rep, name
				cs := m.Counters()
				if cs.AggMsgs == 0 {
					t.Fatal("aggregated 1024-node run sent no aggregates")
				}
				if cs.AggEntriesOut != cs.AggEntriesIn {
					t.Fatalf("conservation broken at 1024 nodes: %d out, %d in",
						cs.AggEntriesOut, cs.AggEntriesIn)
				}
				if vs := check.Accounting(m); len(vs) != 0 {
					t.Fatalf("accounting violations: %v", vs)
				}
			} else if !bytes.Equal(ref, rep) {
				t.Fatalf("%s fingerprint diverges from %s", name, refName)
			}
		}
	}
}

// TestScale1024Topologies completes a 1024-node run on each hierarchical
// topology family — mesh:32x32 (flat, distance-dependent transit) and
// fattree:5 (4-ary, 256 leaf groups) — byte-identical across reruns.
func TestScale1024Topologies(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node topology sweep skipped in -short")
	}
	for _, spec := range []struct {
		net string
		agg bool
	}{
		{"mesh:32x32", false},
		{"fattree:5", true},
	} {
		net, err := network.Preset(spec.net)
		if err != nil {
			t.Fatal(err)
		}
		base := rt.Config{Nodes: 1024, BlockSize: 32, Net: net,
			Protocol: rt.ProtoPredictive, Aggregate: spec.agg}
		_, first := run1024(t, base, neighborProg, 2)
		m, again := run1024(t, base, neighborProg, 2)
		if !bytes.Equal(first, again) {
			t.Fatalf("%s: rerun fingerprint diverges", spec.net)
		}
		if vs := check.Machine(m); len(vs) != 0 {
			t.Fatalf("%s: coherence violations: %v", spec.net, vs)
		}
	}
}

// TestScale1024NodeCountValidation pins the topology/node-count contract
// at scale: a preset that fixes the machine size rejects a mismatched
// Nodes, and group tiling still binds.
func TestScale1024NodeCountValidation(t *testing.T) {
	for _, tc := range []struct {
		net   string
		nodes int
		ok    bool
	}{
		{"mesh:32x32", 1024, true},
		{"mesh:32x32", 512, false},
		{"fattree:5", 1024, true},
		{"fattree:5", 1023, false},
		{"cluster:16x64", 1024, true},
		{"cluster:16x64", 1000, false},
	} {
		net, err := network.Preset(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		m := rt.New(rt.Config{Nodes: tc.nodes, Net: net})
		err = m.Run(func(w *rt.Worker) { w.Barrier() })
		if tc.ok && err != nil {
			t.Fatalf("%s/%d rejected: %v", tc.net, tc.nodes, err)
		}
		if !tc.ok && err == nil {
			t.Fatalf("%s/%d accepted, want node-count error", tc.net, tc.nodes)
		}
	}
}
