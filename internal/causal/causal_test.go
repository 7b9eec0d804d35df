package causal_test

import (
	"testing"

	"presto/internal/causal"
	"presto/internal/sim"
)

// TestPathSendRecv checks the walk on the simplest cross-proc chain:
// a computes, sends to b, b computes — the path must tile [0, end] as
// run(a) / deliver / run(b), and attribution must account every
// nanosecond of both timelines.
func TestPathSendRecv(t *testing.T) {
	k := sim.NewKernel()
	k.EnableRecorder(0)
	var slotA, slotB sim.AttrSlot
	var b *sim.Proc
	a := k.Spawn("a", func(p *sim.Proc) {
		p.Advance(100)
		p.Send(b, "x", 50)
		p.Advance(10)
	})
	b = k.Spawn("b", func(p *sim.Proc) {
		p.Recv()
		p.Advance(20)
	})
	a.SetAttrSlot(&slotA)
	b.SetAttrSlot(&slotB)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := b.Now(); got != 170 {
		t.Fatalf("b finished at %v, want 170", got)
	}

	path, err := causal.ComputePath(k, b.ID(), b.Now())
	if err != nil {
		t.Fatal(err)
	}
	if path.Length != path.End || path.Length != 170 {
		t.Fatalf("path length %v end %v, want 170", path.Length, path.End)
	}
	want := []causal.Segment{
		{Proc: a.ID(), Name: "a", Kind: "run", Start: 0, End: 100},
		{Proc: a.ID(), Name: "a", Kind: "deliver", Start: 100, End: 150},
		{Proc: b.ID(), Name: "b", Kind: "run", Start: 150, End: 170},
	}
	if len(path.Segments) != len(want) {
		t.Fatalf("got %d segments %+v, want %d", len(path.Segments), path.Segments, len(want))
	}
	for i, s := range path.Segments {
		if s != want[i] {
			t.Errorf("segment %d = %+v, want %+v", i, s, want[i])
		}
	}

	// Attribution invariant: bucket sums equal each proc's final clock.
	if got := slotA.Sum(); got != a.Now() {
		t.Errorf("a buckets sum %v != clock %v", got, a.Now())
	}
	if got := slotB.Sum(); got != b.Now() {
		t.Errorf("b buckets sum %v != clock %v", got, b.Now())
	}
	// b: idle until a posted (100), wire transit (50), compute (20).
	if slotB[sim.CatIdle] != 100 || slotB[sim.CatTransit] != 50 || slotB[sim.CatCompute] != 20 {
		t.Errorf("b buckets = %+v, want idle=100 transit=50 compute=20", slotB)
	}
}

// TestPathTimerAndBarrier checks the two kernel-generated edge kinds:
// a timer wake and a barrier release.
func TestPathTimerAndBarrier(t *testing.T) {
	k := sim.NewKernel()
	k.EnableRecorder(0)
	bar := k.NewBarrier(2, 10)
	fast := k.Spawn("fast", func(p *sim.Proc) {
		p.Advance(5)
		p.Wait(bar)
	})
	slow := k.Spawn("slow", func(p *sim.Proc) {
		p.Sleep(100)
		p.Wait(bar)
		p.Advance(7)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// slow: sleeps to 100, joins; barrier releases at 100+10.
	if got := slow.Now(); got != 117 {
		t.Fatalf("slow finished at %v, want 117", got)
	}
	path, err := causal.ComputePath(k, slow.ID(), slow.Now())
	if err != nil {
		t.Fatal(err)
	}
	if path.Length != 117 {
		t.Fatalf("path length %v, want 117", path.Length)
	}
	byKind := path.ByKind()
	if byKind["timer"] != 100 {
		t.Errorf("timer time on path = %v, want 100 (%+v)", byKind["timer"], path.Segments)
	}
	if byKind["barrier"] != 10 {
		t.Errorf("barrier time on path = %v, want 10 (%+v)", byKind["barrier"], path.Segments)
	}
	// fast's path would instead show a barrier wait: check its
	// attribution via a quick recompute from fast's end.
	if fast.Now() != 110 {
		t.Errorf("fast finished at %v, want 110", fast.Now())
	}
}

// TestPathNoRecorder checks the error path.
func TestPathNoRecorder(t *testing.T) {
	k := sim.NewKernel()
	k.Spawn("a", func(p *sim.Proc) { p.Advance(1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := causal.ComputePath(k, 0, 1); err == nil {
		t.Fatal("ComputePath without a recorder should error")
	}
}

// TestValidateCatchesBadSums checks that Validate rejects a profile
// whose buckets do not sum to the stated totals.
func TestValidateCatchesBadSums(t *testing.T) {
	p := &causal.Profile{
		Schema: causal.SchemaVersion,
		PerNode: []causal.NodeProfile{{
			Node:    0,
			TotalNS: 100,
			Buckets: causal.Buckets{ComputeNS: 90},
			Phases:  []causal.PhaseAttr{{Phase: -1, Buckets: causal.Buckets{ComputeNS: 90}}},
		}},
	}
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted buckets (90) != total (100)")
	}
	p.PerNode[0].Buckets.ComputeNS = 100
	p.PerNode[0].Phases[0].Buckets.ComputeNS = 100
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate rejected a consistent profile: %v", err)
	}
	p.Schema = "bogus"
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted a wrong schema version")
	}
}
