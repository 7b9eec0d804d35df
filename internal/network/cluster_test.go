package network

import (
	"strings"
	"testing"

	"presto/internal/sim"
)

// TestClusterPreset pins the cluster:<groups>x<cores> parser and the
// two-level topology it produces.
func TestClusterPreset(t *testing.T) {
	p, err := Preset("cluster:4x8")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Clustered() || p.Groups != 4 || p.GroupSize != 8 {
		t.Fatalf("cluster:4x8 => Groups %d GroupSize %d Clustered %v", p.Groups, p.GroupSize, p.Clustered())
	}
	if g := p.GroupOf(9); g != 1 {
		t.Fatalf("GroupOf(9) = %d, want 1", g)
	}
	if !p.SameGroup(8, 15) || p.SameGroup(7, 8) {
		t.Fatal("SameGroup boundary wrong at the 8/15 vs 7/8 edge")
	}
	for _, bad := range []string{"cluster:", "cluster:4", "cluster:x8", "cluster:4x", "cluster:ax8", "cluster:0x8", "cluster:4x1", "cluster:4096x2"} {
		if _, err := Preset(bad); err == nil {
			t.Fatalf("Preset(%q) accepted", bad)
		}
	}
	if _, err := Preset("bogus"); err == nil || !strings.Contains(err.Error(), "cluster:<groups>x<cores>") {
		t.Fatalf("unknown-preset error should advertise the cluster form, got %v", err)
	}
}

// TestPairMinLatencyMatrix pins the per-pair latency floor:
// intra-group pairs see the (small) intra fabric transit, cross-group
// pairs the (large) top-level transit, and both are capped by the barrier
// cost. On flat presets every pair collapses to MinLatency.
func TestPairMinLatencyMatrix(t *testing.T) {
	p, err := Preset("cluster:2x2")
	if err != nil {
		t.Fatal(err)
	}
	intra := p.PairMinLatency(0, 1) // nodes 0,1 share group 0
	inter := p.PairMinLatency(1, 2) // groups 0 and 1
	if want := p.intraTransit(0); intra != want {
		t.Fatalf("intra pair floor = %v, want intra transit %v", intra, want)
	}
	if want := p.TransitDelay(0); inter != want {
		t.Fatalf("inter pair floor = %v, want top-level transit %v", inter, want)
	}
	if inter <= intra {
		t.Fatalf("cross-group floor %v not wider than intra %v", inter, intra)
	}
	if p.MinLatency() != intra {
		t.Fatalf("clustered MinLatency = %v, want intra minimum %v", p.MinLatency(), intra)
	}
	if pair := p.PairMinLatency(0, 1); pair > p.BarrierLatency {
		t.Fatalf("pair floor %v exceeds barrier %v", pair, p.BarrierLatency)
	}
	for _, flat := range []*Params{CM5(), NOW(), HardwareDSM()} {
		if flat.Clustered() {
			t.Fatal("flat preset reports Clustered")
		}
		if got, want := flat.PairMinLatency(0, 5), flat.MinLatency(); got != want {
			t.Fatalf("flat PairMinLatency = %v, want MinLatency %v", got, want)
		}
		if got, want := flat.TransitDelayPair(64, 2, 3), flat.TransitDelay(64); got != want {
			t.Fatalf("flat TransitDelayPair = %v, want TransitDelay %v", got, want)
		}
	}
}

// TestClusterTransitPair pins that payload costs ride the right wire.
func TestClusterTransitPair(t *testing.T) {
	p, err := Cluster(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.TransitDelayPair(64, 0, 3), p.intraTransit(64); got != want {
		t.Fatalf("intra transit = %v, want %v", got, want)
	}
	if got, want := p.TransitDelayPair(64, 3, 4), p.TransitDelay(64); got != want {
		t.Fatalf("inter transit = %v, want %v", got, want)
	}
}

// TestTransitDelayPairAtClamp: jitter may stretch a transit but can never
// pull it below the pair's minimal transit — otherwise a jittered message
// could arrive sooner than the interconnect allows.
func TestTransitDelayPairAtClamp(t *testing.T) {
	base, err := Cluster(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := base.WithJitter(25, 0xfeed)
	for now := sim.Time(0); now < 200*sim.Microsecond; now += 977 * sim.Nanosecond {
		for src := 0; src < 4; src++ {
			for dst := 0; dst < 4; dst++ {
				if src == dst {
					continue
				}
				d := p.TransitDelayPairAt(0, now, src, dst)
				if min := p.TransitDelayPair(0, src, dst); d < min {
					t.Fatalf("jittered transit %v below pair floor %v (now %v, %d->%d)", d, min, now, src, dst)
				}
			}
		}
	}
	// Flat params: pair-aware jitter must be byte-identical to the scalar
	// path (same hash inputs, same clamp) so existing fingerprints hold.
	f := CM5().WithJitter(25, 0xbeef)
	for now := sim.Time(0); now < 100*sim.Microsecond; now += 1013 * sim.Nanosecond {
		if a, b := f.TransitDelayPairAt(32, now, 1, 2), f.TransitDelayAt(32, now, 1, 2); a != b {
			t.Fatalf("flat pair-aware transit %v != scalar %v at %v", a, b, now)
		}
	}
}

// TestClusterValidate pins the new Validate clauses.
func TestClusterValidate(t *testing.T) {
	p, _ := Cluster(2, 2)
	bad := *p
	bad.IntraWireLatency = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero IntraWireLatency accepted on a clustered machine")
	}
	bad = *p
	bad.IntraPerByteWire = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative IntraPerByteWire accepted")
	}
	bad = *CM5()
	bad.Groups = 4 // groups without a group size is meaningless
	if err := bad.Validate(); err == nil {
		t.Fatal("Groups without GroupSize accepted")
	}
	bad = *CM5()
	bad.GroupSize = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative GroupSize accepted")
	}
}
