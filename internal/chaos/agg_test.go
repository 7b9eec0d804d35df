// Aggregation differential band: node-leader aggregation must be
// timing-visible but memory-invariant on every derived seed, and the
// agg-drop-entry mutation must be caught and shrunk by the oracle.
package chaos

import (
	"strings"
	"testing"

	"presto/internal/rt"
)

const aggMaxEvents = 20_000_000

// TestAggregationBand sweeps seeds through aggregated and unaggregated
// runs. Clustered seeds must keep final memory identical (timing may
// move); flat seeds must be bit-for-bit unchanged (the layer is a
// no-op).
func TestAggregationBand(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	clustered, aggregated := 0, 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		s := Derive(seed, ScaleQuick)
		off := Execute(s, rt.ProtoPredictive, "", aggMaxEvents)
		on := ExecuteAggregated(s, rt.ProtoPredictive, "", aggMaxEvents)
		if !off.Clean() || !on.Clean() {
			t.Fatalf("seed %d (%s): unclean runs:\noff: %v\non:  %v", seed, s, off, on)
		}
		if off.MemHash != on.MemHash {
			t.Fatalf("seed %d (%s): aggregation changed memory: %016x vs %016x",
				seed, s, off.MemHash, on.MemHash)
		}
		if s.clustered() {
			clustered++
			if on.Counters.AggMsgs > 0 {
				aggregated++
			}
		} else if d := off.diff(on); len(d) != 0 {
			t.Fatalf("seed %d (%s): flat aggregation not a no-op: %v", seed, s, d)
		}
	}
	if clustered == 0 {
		t.Fatal("band derived no clustered seeds; aggregation untested")
	}
	// Without multi-part aggregates the band proves nothing about the
	// coalescing path — broadcast-phase seeds on clustered fabrics must
	// actually send leader aggregates.
	if aggregated == 0 {
		t.Fatalf("no clustered seed sent aggregates (%d clustered seeds)", clustered)
	}
	t.Logf("%d clustered seeds, %d with aggregate traffic", clustered, aggregated)
}

// TestAggDropMutationCaughtAndShrunk injects the aggregation
// entry-dropping defect and requires the differential oracle to catch
// it (via a wedged run or the conservation identity) and shrink it to a
// small reproducer carrying the right repro flags.
func TestAggDropMutationCaughtAndShrunk(t *testing.T) {
	rep := Fuzz(Options{Seeds: 120, Mutation: rt.MutationAggDropEntry})
	if rep.Ok() {
		t.Fatalf("mutation %s not caught over %d seeds", rt.MutationAggDropEntry, rep.SeedsRun)
	}
	f := rep.Failures[0]
	if !f.MinResult.Failed() {
		t.Fatal("shrunk reproducer does not fail")
	}
	if f.Min.Nodes > 6 || f.Min.Phases > 3 {
		t.Errorf("reproducer not minimal: nodes=%d phases=%d (want <=6, <=3)",
			f.Min.Nodes, f.Min.Phases)
	}
	if !strings.Contains(f.Repro, "-mutate "+rt.MutationAggDropEntry) {
		t.Errorf("repro command incomplete: %s", f.Repro)
	}
	o := Options{Mutation: rt.MutationAggDropEntry, Caps: f.Min}
	if r := RunSeed(f.Seed, o); !r.Failed() {
		t.Errorf("repro seed %d with caps %+v does not fail", f.Seed, f.Min)
	}
}

// TestHierarchicalTopologySeeds pins the sentinel materialization and
// executes a handcrafted fat-tree spec: 16 nodes is the one quick-range
// count where fattree:2 survives, and repeated runs must agree on it.
func TestHierarchicalTopologySeeds(t *testing.T) {
	meshes, fattrees := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		s := Derive(seed, ScaleLong)
		if strings.HasPrefix(s.Net, "mesh:") {
			meshes++
		}
		if strings.HasPrefix(s.Net, "fattree:") {
			fattrees++
			if s.Nodes != 16 {
				t.Fatalf("seed %d: fattree spec with %d nodes", seed, s.Nodes)
			}
		}
	}
	if meshes == 0 {
		t.Fatal("no mesh seeds derived in 300 long-scale seeds")
	}
	t.Logf("300 long-scale seeds: %d mesh, %d fattree", meshes, fattrees)

	s := Derive(42, ScaleQuick)
	s.Nodes = 16
	s.Net = "fattree:2"
	s.Elems = 4 * s.Nodes
	first := ExecuteAggregated(s, rt.ProtoPredictive, "", aggMaxEvents)
	again := ExecuteAggregated(s, rt.ProtoPredictive, "", aggMaxEvents)
	if !first.Clean() {
		t.Fatalf("fat-tree run unclean: %v", first)
	}
	if d := first.diff(again); len(d) != 0 {
		t.Fatalf("fat-tree reruns diverge: %v", d)
	}
}
