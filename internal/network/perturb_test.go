package network

import (
	"testing"

	"presto/internal/sim"
)

// TestJitterBounds checks the perturbation layer's two contracts: every
// jittered cost stays within ±JitterPct of its base, and transit delays
// never drop below MinLatency (the interconnect's floor).
func TestJitterBounds(t *testing.T) {
	for _, base := range []*Params{CM5(), NOW(), HardwareDSM()} {
		for _, pct := range []int{1, 5, 25, 50} {
			p := base.WithJitter(pct, 0xfeed)
			if err := p.Validate(); err != nil {
				t.Fatalf("jittered params invalid: %v", err)
			}
			for i := 0; i < 500; i++ {
				now := sim.Time(i) * 37 * sim.Microsecond
				payload := (i * 13) % 512
				src, dst := i%8, (i*3+1)%8

				d := p.TransitDelayAt(payload, now, src, dst)
				if d < p.MinLatency() {
					t.Fatalf("%d%% jitter: transit %v below min latency %v", pct, d, p.MinLatency())
				}
				checkWithin(t, pct, base.TransitDelay(payload), d)

				s := p.SendCostAt(payload, now, src, dst)
				checkWithin(t, pct, base.SendCost(payload), s)

				r := p.RecvOverheadAt(now, dst)
				checkWithin(t, pct, base.RecvOverhead, r)
			}
		}
	}
}

// checkWithin asserts got ∈ [base·(1-pct%), base·(1+pct%)] with one unit
// of slack for the basis-point rounding.
func checkWithin(t *testing.T, pct int, base, got sim.Time) {
	t.Helper()
	span := sim.Time(int64(base) * int64(pct) / 100)
	if got < base-span-1 || got > base+span+1 {
		t.Fatalf("%d%% jitter: %v strays outside %v ± %v", pct, got, base, span)
	}
}

// TestJitterDeterministic: the perturbation is a pure function of
// (seed, virtual time, endpoints, payload) — identical inputs give
// identical costs, and at least one input actually perturbs.
func TestJitterDeterministic(t *testing.T) {
	p := CM5().WithJitter(25, 42)
	q := CM5().WithJitter(25, 42)
	varied := false
	for i := 0; i < 200; i++ {
		now := sim.Time(i) * sim.Microsecond
		a := p.TransitDelayAt(64, now, 0, 1)
		b := q.TransitDelayAt(64, now, 0, 1)
		if a != b {
			t.Fatalf("jitter not reproducible: %v vs %v", a, b)
		}
		if a != CM5().TransitDelay(64) {
			varied = true
		}
	}
	if !varied {
		t.Fatalf("25%% jitter never perturbed any transit")
	}
	// Distinct seeds must explore distinct orderings.
	r := CM5().WithJitter(25, 43)
	same := true
	for i := 0; i < 200 && same; i++ {
		now := sim.Time(i) * sim.Microsecond
		same = p.TransitDelayAt(64, now, 0, 1) == r.TransitDelayAt(64, now, 0, 1)
	}
	if same {
		t.Fatalf("seeds 42 and 43 produce identical jitter streams")
	}
}

// TestZeroJitterIsIdentity: without jitter the *At variants equal the
// base cost model exactly.
func TestZeroJitterIsIdentity(t *testing.T) {
	p := CM5()
	for i := 0; i < 100; i++ {
		now := sim.Time(i) * sim.Microsecond
		if p.TransitDelayAt(64, now, 0, 1) != p.TransitDelay(64) ||
			p.SendCostAt(64, now, 0, 1) != p.SendCost(64) ||
			p.RecvOverheadAt(now, 1) != p.RecvOverhead {
			t.Fatalf("zero-jitter params perturb costs")
		}
	}
}

func TestValidate(t *testing.T) {
	for _, name := range []string{"cm5", "now", "hwdsm"} {
		p, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("preset %s invalid: %v", name, err)
		}
	}
	if _, err := Preset("ethernet"); err == nil {
		t.Fatalf("unknown preset accepted")
	}

	bad := CM5()
	bad.RecvOverhead = 0
	if err := bad.Validate(); err == nil {
		t.Fatalf("zero RecvOverhead accepted")
	}
	bad = CM5()
	bad.PerByteWire = -1
	if err := bad.Validate(); err == nil {
		t.Fatalf("negative PerByteWire accepted")
	}
	bad = CM5()
	bad.JitterPct = 100
	if err := bad.Validate(); err == nil {
		t.Fatalf("JitterPct 100 accepted")
	}
	bad = CM5()
	bad.WireLatency = 0
	bad.BarrierLatency = 0
	if err := bad.Validate(); err == nil {
		t.Fatalf("degenerate MinLatency accepted")
	}
}
