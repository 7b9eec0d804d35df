// Determinism tests for run-level parallelism: machines run side by side
// on the run pool (internal/runpool) must produce output byte-identical
// to a run on its own — the same final virtual time, the same metrics
// report, and the same JSONL protocol trace — whatever they run beside.
package rt_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"presto/internal/apps/adaptive"
	"presto/internal/apps/barnes"
	"presto/internal/apps/water"
	"presto/internal/network"
	"presto/internal/rt"
	"presto/internal/runpool/pooltest"
	"presto/internal/sim"
	"presto/internal/trace"
)

// artifacts captures everything a run externalizes.
type artifacts struct {
	elapsed sim.Time
	report  []byte
	trace   []byte
	err     error
}

// same reports how b differs from the reference a, or "" if it does not.
func (a artifacts) same(b artifacts) string {
	switch {
	case a.err != nil || b.err != nil:
		return fmt.Sprintf("run failed: %v / %v", a.err, b.err)
	case a.elapsed != b.elapsed:
		return fmt.Sprintf("elapsed %v vs %v", a.elapsed, b.elapsed)
	case !bytes.Equal(a.report, b.report):
		return fmt.Sprintf("metrics reports differ:\n%.400s\nvs\n%.400s", a.report, b.report)
	case !bytes.Equal(a.trace, b.trace):
		return fmt.Sprintf("JSONL traces differ (%d vs %d bytes)", len(a.trace), len(b.trace))
	}
	return ""
}

// observe collects a finished machine's artifacts.
func observe(m *rt.Machine, trace []byte) artifacts {
	rep, err := json.Marshal(m.Report())
	return artifacts{elapsed: m.Elapsed(), report: rep, trace: trace, err: err}
}

// runProg executes prog on a fresh machine with cfg. It is safe to call
// from a pool goroutine: failures come back in the artifacts.
func runProg(cfg rt.Config, prog func(*rt.Machine, int) rt.Program, iters int) artifacts {
	m := rt.New(cfg)
	if err := m.Run(prog(m, iters)); err != nil {
		return artifacts{err: fmt.Errorf("run (%+v): %v", cfg, err)}
	}
	return observe(m, nil)
}

// runApp executes one small configuration of the named app with a JSONL
// trace attached and returns its observable output.
func runApp(app string) artifacts {
	var buf bytes.Buffer
	jsonl := trace.NewJSONL(&buf)
	mc := rt.Config{Nodes: 8, BlockSize: 32, Protocol: rt.ProtoPredictive, Sink: jsonl}
	var m *rt.Machine
	var err error
	switch app {
	case "adaptive":
		var r *adaptive.Result
		if r, err = adaptive.Run(adaptive.Config{Machine: mc, Size: 32, Iters: 1, RefineEvery: 1}); err == nil {
			m = r.Machine
		}
	case "barnes":
		var r *barnes.Result
		if r, err = barnes.Run(barnes.Config{Machine: mc, Bodies: 256, Iters: 1}); err == nil {
			m = r.Machine
		}
	case "water":
		var r *water.Result
		if r, err = water.Run(water.Config{Machine: mc, Molecules: 64, Steps: 1}); err == nil {
			m = r.Machine
		}
	default:
		err = fmt.Errorf("unknown app %q", app)
	}
	if err == nil {
		err = jsonl.Close()
	}
	if err != nil {
		return artifacts{err: fmt.Errorf("%s: %v", app, err)}
	}
	return observe(m, buf.Bytes())
}

// TestParallelEngineDeterminism runs one iteration of each paper
// application on its own, then one and four copies side by side, and
// requires identical final virtual time, metrics report bytes and
// protocol trace bytes.
func TestParallelEngineDeterminism(t *testing.T) {
	for _, app := range []string{"adaptive", "barnes", "water"} {
		t.Run(app, func(t *testing.T) {
			alone := runApp(app)
			if alone.err != nil {
				t.Fatal(alone.err)
			}
			for _, copies := range []int{1, 4} {
				for i, got := range pooltest.SideBySide(copies, func(int) artifacts { return runApp(app) }) {
					if d := alone.same(got); d != "" {
						t.Fatalf("%d side by side, copy %d: %s", copies, i, d)
					}
				}
			}
		})
	}
}

// TestClusterEngineIdentity: on a clustered interconnect, copies of the
// neighbor exchange run side by side under both event schedulers must
// all match the reference run on the default wheel.
func TestClusterEngineIdentity(t *testing.T) {
	net, err := network.Preset("cluster:4x2")
	if err != nil {
		t.Fatal(err)
	}
	base := rt.Config{Nodes: 8, BlockSize: 32, Net: net}
	ref := runProg(base, neighborProg, 6)
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	scheds := []rt.SchedKind{rt.SchedWheel, rt.SchedHeap, rt.SchedWheel, rt.SchedHeap}
	for i, got := range pooltest.SideBySide(len(scheds), func(i int) artifacts {
		c := base
		c.Sched = scheds[i]
		return runProg(c, neighborProg, 6)
	}) {
		if d := ref.same(got); d != "" {
			t.Fatalf("copy %d (%s): %s", i, scheds[i], d)
		}
	}
}
