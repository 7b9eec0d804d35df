package network

import (
	"strings"
	"testing"

	"presto/internal/sim"
)

// TestPresetTopologies parses every new grammar and checks the pinned
// node counts.
func TestPresetTopologies(t *testing.T) {
	cases := []struct {
		name  string
		nodes int
	}{
		{"cluster:4x8", 32},
		{"cluster:16x64", 1024},
		{"cluster:4x16x16", 1024},
		{"cluster:2x4x8", 64},
		{"mesh:32x32", 1024},
		{"mesh:8x4", 32},
		{"fattree:5", 1024},
		{"fattree:2", 16},
	}
	for _, c := range cases {
		p, err := Preset(c.name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", c.name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Preset(%q).Validate: %v", c.name, err)
		}
		if got := p.ExpectNodes(); got != c.nodes {
			t.Errorf("Preset(%q).ExpectNodes = %d, want %d", c.name, got, c.nodes)
		}
		if p.MinLatency() <= 0 {
			t.Errorf("Preset(%q).MinLatency = %v", c.name, p.MinLatency())
		}
	}
}

// TestPresetErrorsEnumerateGrammars asserts a typo'd preset error names
// every legal grammar (the CLI help-text contract).
func TestPresetErrorsEnumerateGrammars(t *testing.T) {
	_, err := Preset("torus:4x4")
	if err == nil {
		t.Fatal("Preset accepted an unknown topology")
	}
	for _, want := range []string{"cm5", "now", "hwdsm", "cluster:<groups>x<cores>",
		"cluster:<groups>x<subgroups>x<cores>", "mesh:<w>x<h>", "fattree:<levels>"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-preset error %q does not mention %q", err, want)
		}
	}
	for _, bad := range []string{"cluster:8", "cluster:axb", "mesh:9", "mesh:2x2x2", "fattree:x", "fattree:9", "mesh:0x5"} {
		if _, err := Preset(bad); err == nil {
			t.Errorf("Preset(%q) unexpectedly succeeded", bad)
		}
	}
}

// TestHierTransitOrdering checks that transit delay is monotone in
// hierarchy distance: same group < same mid-level < cross-machine, and
// that every pair's jittered transit respects the pair clamp at 1024
// nodes.
func TestHierTransitOrdering(t *testing.T) {
	for _, name := range []string{"cluster:4x16x16", "fattree:5"} {
		p, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		inner := p.TransitDelayPair(64, 0, 1)                 // same innermost group
		mid := p.TransitDelayPair(64, 0, p.GroupSize)         // same first Hier level
		outer := p.TransitDelayPair(64, 0, p.ExpectNodes()-1) // cross-machine
		if !(inner < mid && mid < outer) {
			t.Errorf("%s: transit not monotone: inner %v, mid %v, outer %v", name, inner, mid, outer)
		}
		if got := p.TransitDelayPair(64, 0, p.GroupSize-1); got != inner {
			t.Errorf("%s: intra-group transit differs within group: %v vs %v", name, got, inner)
		}
	}
}

// TestMeshTransit checks Manhattan-distance scaling and that neighbors
// pay exactly the flat transit.
func TestMeshTransit(t *testing.T) {
	p, err := Preset("mesh:32x32")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.TransitDelayPair(0, 0, 1); got != p.TransitDelay(0) {
		t.Errorf("neighbor transit %v, want flat %v", got, p.TransitDelay(0))
	}
	// Opposite corners: 31+31 hops, 61 extra HopLatency charges.
	want := p.TransitDelay(0) + 61*p.HopLatency
	if got := p.TransitDelayPair(0, 0, 1023); got != want {
		t.Errorf("corner transit %v, want %v", got, want)
	}
	// Symmetry.
	if a, b := p.TransitDelayPair(32, 5, 997), p.TransitDelayPair(32, 997, 5); a != b {
		t.Errorf("mesh transit asymmetric: %v vs %v", a, b)
	}
}

// TestPairClampAt1024 asserts the jittered pair transit never undercuts
// the pair's minimal transit on every new topology — the pair floor of
// the timing model.
func TestPairClampAt1024(t *testing.T) {
	for _, name := range []string{"cluster:16x64", "cluster:4x16x16", "mesh:32x32", "fattree:5"} {
		p, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		j := p.WithJitter(40, 0xfeed)
		n := p.ExpectNodes()
		pairs := [][2]int{{0, 1}, {0, n / 2}, {n - 1, 0}, {n/2 - 1, n / 2}, {7, n - 3}}
		for _, pr := range pairs {
			floor := p.TransitDelayPair(0, pr[0], pr[1])
			for now := sim.Time(0); now < 50*sim.Microsecond; now += 977 * sim.Nanosecond {
				if got := j.TransitDelayPairAt(0, now, pr[0], pr[1]); got < floor {
					t.Fatalf("%s: jittered transit %v under pair floor %v for %v at %v", name, got, floor, pr, now)
				}
			}
			if pm := p.PairMinLatency(pr[0], pr[1]); pm <= 0 || pm > floor {
				t.Errorf("%s: PairMinLatency(%v) = %v, floor %v", name, pr, pm, floor)
			}
		}
	}
}

// TestClusterLevelsBackCompat asserts a two-dim ClusterLevels shape is
// identical to the classic Cluster preset.
func TestClusterLevelsBackCompat(t *testing.T) {
	a, err := Cluster(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClusterLevels([]int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.GroupSize != b.GroupSize || a.Groups != b.Groups || len(b.Hier) != 0 {
		t.Errorf("ClusterLevels([4,8]) diverges from Cluster(4,8): %+v vs %+v", b, a)
	}
}
