package predict

import (
	"fmt"
	"strings"
	"testing"

	"presto/internal/chaos"
	"presto/internal/network"
	"presto/internal/rt"
)

// calSpec derives a chaos workload pinned to the predictor's calibration
// conventions: 32-byte blocks, no jitter.
func calSpec(seed int64) chaos.Spec {
	s := chaos.Derive(seed, chaos.ScaleQuick)
	s.BlockSize = 32
	s.JitterPct = 0
	return s
}

// TestIdentityExact locks the model's anchor: predicting the calibration
// configuration itself must reproduce elapsed time, breakdown and
// counters exactly — not approximately.
func TestIdentityExact(t *testing.T) {
	for _, proto := range []rt.ProtocolKind{rt.ProtoStache, rt.ProtoPredictive} {
		s := calSpec(7)
		rc := chaos.RunConfig{Protocol: proto}
		m, err := chaos.ExecuteCalibration(s, rc)
		if err != nil {
			t.Fatal(err)
		}
		cal, err := Calibrate(m, "identity")
		if err != nil {
			t.Fatal(err)
		}
		p, err := cal.Predict(Target{})
		if err != nil {
			t.Fatal(err)
		}
		if p.ElapsedNS != cal.ElapsedNS {
			t.Fatalf("%s: identity elapsed %d != calibration %d", proto, p.ElapsedNS, cal.ElapsedNS)
		}
		if p.Breakdown != m.Breakdown() {
			t.Fatalf("%s: identity breakdown %+v != %+v", proto, p.Breakdown, m.Breakdown())
		}
		if p.Counters != m.Counters() {
			t.Fatalf("%s: identity counters %+v != %+v", proto, p.Counters, m.Counters())
		}
	}
}

// TestRecordingDoesNotPerturb asserts the observation-only contract: a
// calibration run's fingerprint is byte-identical to a plain run's.
func TestRecordingDoesNotPerturb(t *testing.T) {
	s := calSpec(11)
	rc := chaos.RunConfig{Protocol: rt.ProtoPredictive}
	plain := chaos.ExecuteRun(s, rc)
	if plain.Err != "" {
		t.Fatal(plain.Err)
	}
	m, err := chaos.ExecuteCalibration(s, rc)
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(m.Elapsed()); got != plain.ElapsedNS {
		t.Fatalf("recording perturbed the run: elapsed %d != %d", got, plain.ElapsedNS)
	}
	if got := m.Counters(); got != plain.Counters {
		t.Fatalf("recording perturbed the run: counters %+v != %+v", got, plain.Counters)
	}
}

// TestBlockSizeExtrapolation sanity-checks the block-size axis on a few
// seeds: predictions must land within a loose band of the simulation
// (the strict <15% MAE gate runs over the full chaos band and figure
// sweeps in CI).
func TestBlockSizeExtrapolation(t *testing.T) {
	table := &ErrorTable{}
	for seed := int64(0); seed < 4; seed++ {
		s := calSpec(seed)
		proto := rt.ProtoStache
		if seed%2 == 1 {
			proto = rt.ProtoPredictive
		}
		rc := chaos.RunConfig{Protocol: proto}
		m, err := chaos.ExecuteCalibration(s, rc)
		if err != nil {
			t.Fatal(err)
		}
		cal, err := Calibrate(m, "bs")
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 3} {
			bs := 32 << k
			p, err := cal.Predict(Target{BlockSize: bs})
			if err != nil {
				t.Fatal(err)
			}
			sim := s
			sim.BlockSize = bs
			fp := chaos.ExecuteRun(sim, rc)
			if fp.Err != "" {
				t.Fatal(fp.Err)
			}
			table.Add("bs", fmt.Sprintf("seed %d", seed), bs, p.ElapsedNS, fp.ElapsedNS)
		}
	}
	t.Logf("block-size extrapolation MAE %.2f%% (max %.2f%%)", table.MAE(), table.MaxErr())
	if mae := table.MAE(); mae > 25 {
		t.Fatalf("block-size extrapolation MAE %.2f%% exceeds the 25%% smoke bound", mae)
	}
}

// TestNetworkExtrapolation predicts a calibrated workload onto different
// interconnects, including a clustered one, and checks against simulation.
func TestNetworkExtrapolation(t *testing.T) {
	s := calSpec(3)
	s.Net = "cm5"
	rc := chaos.RunConfig{Protocol: rt.ProtoStache}
	m, err := chaos.ExecuteCalibration(s, rc)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(m, "net")
	if err != nil {
		t.Fatal(err)
	}
	table := &ErrorTable{}
	for _, preset := range []string{"now", "hwdsm", fmt.Sprintf("cluster:%dx2", s.Nodes/2)} {
		if s.Nodes%2 != 0 {
			break
		}
		net, err := network.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		p, err := cal.Predict(Target{Net: net})
		if err != nil {
			t.Fatal(err)
		}
		sim := s
		sim.Net = preset
		fp := chaos.ExecuteRun(sim, rc)
		if fp.Err != "" {
			t.Fatal(fp.Err)
		}
		table.Add("net", preset, s.BlockSize, p.ElapsedNS, fp.ElapsedNS)
	}
	t.Logf("network extrapolation MAE %.2f%% (max %.2f%%)", table.MAE(), table.MaxErr())
	if mae := table.MAE(); mae > 40 {
		t.Fatalf("network extrapolation MAE %.2f%% exceeds the 40%% smoke bound", mae)
	}
}

// TestChaosBandSmoke runs a small band end to end. The chaos band is
// adversarial by construction (randomized conflict storms and RMW
// contention); its standalone error runs higher than the structured
// figure workloads, so the smoke bound here is looser than the 15%
// CI gate, which applies to the combined figure-sweep + chaos table.
func TestChaosBandSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos band runs full simulations")
	}
	table, err := ChaosBand(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 6*len(chaosBandShifts) {
		t.Fatalf("got %d rows, want %d", len(table.Rows), 6*len(chaosBandShifts))
	}
	t.Logf("chaos band MAE %.2f%% (max %.2f%%)", table.MAE(), table.MaxErr())
	if mae := table.MAE(); mae > 30 {
		t.Fatalf("chaos band MAE %.2f%% exceeds the 30%% smoke bound", mae)
	}
}

// TestPredictZeroAlloc locks the sweep hot path: Predict on a built
// calibration allocates nothing.
func TestPredictZeroAlloc(t *testing.T) {
	cal := Synthetic(16, 4)
	nets := []*network.Params{network.CM5(), network.NOW(), network.HardwareDSM()}
	var sink int64
	allocs := testing.AllocsPerRun(100, func() {
		for _, net := range nets {
			for k := 0; k <= MaxShift; k++ {
				p, err := cal.Predict(Target{BlockSize: 32 << k, Net: net})
				if err != nil {
					t.Fatal(err)
				}
				sink += p.ElapsedNS
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Predict allocates %.1f per sweep, want 0", allocs)
	}
	_ = sink
}

// TestTargetValidation covers the error paths.
func TestTargetValidation(t *testing.T) {
	cal := Synthetic(4, 2)
	if _, err := cal.Predict(Target{BlockSize: 48}); err != ErrBlockSize {
		t.Fatalf("48B target: got %v, want ErrBlockSize", err)
	}
	if _, err := cal.Predict(Target{BlockSize: 32 << (MaxShift + 1)}); err != ErrBlockSize {
		t.Fatalf("oversized target: got %v, want ErrBlockSize", err)
	}
	if _, err := cal.Predict(Target{Nodes: -1}); err != ErrNodes {
		t.Fatalf("negative nodes: got %v, want ErrNodes", err)
	}
	if _, err := cal.Predict(Target{BlockSize: 64, Nodes: 8}); err != nil {
		t.Fatalf("valid target rejected: %v", err)
	}
}

// TestCalibrateRequiresInstrumentation rejects machines missing the
// profiler or recorder.
func TestCalibrateRequiresInstrumentation(t *testing.T) {
	m := rt.New(rt.Config{Nodes: 2, BlockSize: 32})
	if _, err := Calibrate(m, "x"); err == nil {
		t.Fatal("calibrated a machine without Profile/Record")
	}
}

// TestPhasesForecast checks the per-phase view: identity spans sum to the
// calibration elapsed time (after normalization) and every calibration
// phase appears.
func TestPhasesForecast(t *testing.T) {
	s := calSpec(5)
	rc := chaos.RunConfig{Protocol: rt.ProtoStache}
	m, err := chaos.ExecuteCalibration(s, rc)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(m, "phases")
	if err != nil {
		t.Fatal(err)
	}
	fc, err := cal.Phases(Target{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fc) == 0 || fc[0].Phase != -1 {
		t.Fatalf("forecast must lead with the (outside) phase, got %+v", fc)
	}
	var sum int64
	for _, f := range fc {
		sum += f.SpanNS
	}
	if sum == 0 {
		t.Fatal("zero total span")
	}
}

// TestErrorTableCSV locks the CSV shape.
func TestErrorTableCSV(t *testing.T) {
	table := &ErrorTable{}
	table.Add("figure5", "C** opt (32)", 32, 1_000_000, 1_100_000)
	var b strings.Builder
	table.WriteCSV(&b)
	want := "experiment,version,block_bytes,predicted_s,simulated_s,abs_pct_err\nfigure5,C** opt (32),32,0.001000,0.001100,9.09\n"
	if b.String() != want {
		t.Fatalf("CSV mismatch:\n%q\nwant\n%q", b.String(), want)
	}
	if table.MAE() == 0 || table.MaxErr() == 0 {
		t.Fatal("error stats empty")
	}
}
