package harness

import (
	"bytes"
	"strings"
	"testing"
)

func runExp(t *testing.T, id string) *Result {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	res, err := e.Run(Options{Scale: Quick})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablate-coalesce", "ablate-conflicts", "ablate-flush",
		"figure4", "figure5", "figure6", "figure7", "inspector", "platforms",
		"predict-error", "scale", "sweep", "table1"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Paper == "" || e.Title == "" {
			t.Fatalf("experiment %q missing metadata", e.ID)
		}
	}
}

func TestTable1(t *testing.T) {
	res := runExp(t, "table1")
	joined := strings.Join(res.Notes, "\n")
	for _, want := range []string{"128x128 mesh, 100 iterations", "16384 bodies", "512 molecules"} {
		if !strings.Contains(joined, want) {
			t.Errorf("table1 missing %q", want)
		}
	}
}

func TestFigure4(t *testing.T) {
	res := runExp(t, "figure4")
	joined := strings.Join(res.Notes, "\n")
	for _, want := range []string{"4 pre-send directives", "hoisted out of loop", "Non-Home"} {
		if !strings.Contains(joined, want) {
			t.Errorf("figure4 report missing %q", want)
		}
	}
}

// TestFigure5Claims is the Adaptive acceptance test: the paper's shape
// must hold at quick scale.
func TestFigure5Claims(t *testing.T) {
	res := runExp(t, "figure5")
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	bestOpt, _ := res.Best("C** opt")
	bestUnopt, _ := res.Best("C** unopt")
	speedup := float64(bestUnopt.Total()) / float64(bestOpt.Total())
	if speedup < 1.15 {
		t.Fatalf("best opt speedup = %.2f, want >= 1.15 (paper: 1.56)", speedup)
	}
	o32, _ := res.Find("C** opt (32)")
	u32, _ := res.Find("C** unopt (32)")
	if o32.B.RemoteWait*3 >= u32.B.RemoteWait {
		t.Fatalf("32B pre-send did not cut remote wait enough: %v vs %v", o32.B.RemoteWait, u32.B.RemoteWait)
	}
	if o32.B.Sync >= u32.B.Sync {
		t.Fatalf("pre-send should reduce synchronization (paper: load-imbalance effect): %v vs %v", o32.B.Sync, u32.B.Sync)
	}
	u256, _ := res.Find("C** unopt (256)")
	if u256.Total() >= u32.Total() {
		t.Fatal("larger blocks should help the unoptimized version")
	}
}

// TestFigure6Claims is the Barnes acceptance test.
func TestFigure6Claims(t *testing.T) {
	res := runExp(t, "figure6")
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	o32, _ := res.Find("C** opt (32)")
	u32, _ := res.Find("C** unopt (32)")
	u1024, _ := res.Find("C** unopt (1024)")
	o1024, _ := res.Find("C** opt (1024)")
	spmd, _ := res.Find("SPMD write-update (1024)")
	if o32.B.RemoteWait >= u32.B.RemoteWait {
		t.Fatal("pre-send did not reduce remote wait at 32B")
	}
	if u1024.Total() >= o32.Total() {
		t.Fatalf("paper crossover missing: unopt(1024)=%v should beat opt(32)=%v", u1024.Total(), o32.Total())
	}
	// The two 1024B versions and SPMD are comparable (within 15%).
	for _, pair := range [][2]Row{{u1024, o1024}, {u1024, spmd}} {
		r := float64(pair[0].Total()) / float64(pair[1].Total())
		if r < 0.85 || r > 1.18 {
			t.Fatalf("%q vs %q not comparable: ratio %.2f", pair[0].Label, pair[1].Label, r)
		}
	}
}

// TestFigure7Claims is the Water acceptance test.
func TestFigure7Claims(t *testing.T) {
	res := runExp(t, "figure7")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	opt, _ := res.Best("C** opt")
	unopt, _ := res.Best("C** unopt")
	splash, _ := res.Best("Splash")
	r1 := float64(unopt.Total()) / float64(opt.Total())
	if r1 < 1.0 || r1 > 1.35 {
		t.Fatalf("opt vs unopt ratio = %.2f, want small improvement (paper: 1.05)", r1)
	}
	r2 := float64(splash.Total()) / float64(opt.Total())
	if r2 < 1.05 {
		t.Fatalf("opt vs splash ratio = %.2f, want >= 1.05 (paper: 1.2)", r2)
	}
	if splash.Total() <= unopt.Total() {
		t.Fatal("Splash should be the slowest version")
	}
}

func TestSweepShape(t *testing.T) {
	res := runExp(t, "sweep")
	// At every block size, opt's remote wait must be below unopt's, and
	// the opt-vs-unopt total gap must shrink as blocks grow.
	gaps := map[int]float64{}
	for _, bs := range []int{32, 64, 128, 256, 1024} {
		var u, o Row
		for _, r := range res.Rows {
			if r.BlockSize != bs {
				continue
			}
			if strings.Contains(r.Label, "unopt") {
				u = r
			} else {
				o = r
			}
		}
		if o.B.RemoteWait >= u.B.RemoteWait {
			t.Fatalf("bs=%d: opt remote wait %v >= unopt %v", bs, o.B.RemoteWait, u.B.RemoteWait)
		}
		gaps[bs] = float64(u.Total()) - float64(o.Total())
	}
	if gaps[1024] >= gaps[32] {
		t.Fatalf("gap should shrink with block size: 32B=%.0f 1024B=%.0f", gaps[32], gaps[1024])
	}
}

func TestAblations(t *testing.T) {
	co := runExp(t, "ablate-coalesce")
	if co.Rows[0].B.Presend >= co.Rows[1].B.Presend {
		t.Fatalf("coalescing should cut pre-send time: on=%v off=%v",
			co.Rows[0].B.Presend, co.Rows[1].B.Presend)
	}
	if co.Rows[0].C.BulkMsgs == 0 || co.Rows[1].C.BulkMsgs != 0 {
		t.Fatal("bulk message counters inconsistent")
	}

	ac := runExp(t, "ablate-conflicts")
	if ac.Rows[0].C.Conflicts == 0 {
		t.Fatal("expected conflict entries at 256B blocks")
	}

	fl := runExp(t, "ablate-flush")
	never := fl.Rows[0]
	flush := fl.Rows[1]
	policy := fl.Rows[2]
	if flush.C.PresendsSent >= never.C.PresendsSent {
		t.Fatalf("flushing should reduce pre-sends under a rotating pattern: %d vs %d",
			flush.C.PresendsSent, never.C.PresendsSent)
	}
	if policy.C.PresendsSent >= never.C.PresendsSent {
		t.Fatalf("protocol flush policy should reduce pre-sends: %d vs %d",
			policy.C.PresendsSent, never.C.PresendsSent)
	}
}

func TestInspectorComparison(t *testing.T) {
	res := runExp(t, "inspector")
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Static mesh: both optimizations beat plain.
	plainS, _ := res.Find("static mesh, plain")
	predS, _ := res.Find("static mesh, predictive")
	ieS, _ := res.Find("static mesh, inspector")
	if predS.Total() >= plainS.Total() || ieS.Total() >= plainS.Total() {
		t.Fatal("optimizations did not beat plain on the static mesh")
	}
	// Adaptive mesh: the predictive protocol keeps its advantage over
	// plain with no application-level machinery, and stays competitive
	// with the inspector-executor (within 35%), whose re-inspection
	// compute grows with mesh churn while the static run inspects once.
	plainA, _ := res.Find("adaptive mesh, plain")
	predA, _ := res.Find("adaptive mesh, predictive")
	ieA, _ := res.Find("adaptive mesh, inspector")
	if predA.Total() >= plainA.Total() {
		t.Fatal("predictive lost to plain under churn")
	}
	if r := float64(predA.Total()) / float64(ieA.Total()); r > 1.35 {
		t.Fatalf("predictive %.2fx slower than inspector-executor under churn", r)
	}
	if ieA.B.Compute <= ieS.B.Compute {
		t.Fatalf("re-inspection compute missing: adaptive %v <= static %v",
			ieA.B.Compute, ieS.B.Compute)
	}
}

// TestPlatformTradeoff reproduces the §5.4 discussion: the predictive
// protocol's benefit grows with remote latency and nearly vanishes on a
// hardware-assisted DSM.
func TestPlatformTradeoff(t *testing.T) {
	res := runExp(t, "platforms")
	speedup := func(tag string) float64 {
		u, okU := res.Find(tag + " unopt")
		o, okO := res.Find(tag + " opt")
		if !okU || !okO {
			t.Fatalf("missing rows for %s", tag)
		}
		return float64(u.Total()) / float64(o.Total())
	}
	now, cm5, hw := speedup("NOW"), speedup("CM-5"), speedup("hw-DSM")
	if !(now > cm5 && cm5 > hw) {
		t.Fatalf("speedups not ordered by latency: NOW=%.2f CM-5=%.2f hw=%.2f", now, cm5, hw)
	}
	if hw > 1.10 {
		t.Fatalf("hardware DSM speedup %.2f; should be marginal (paper §5.4)", hw)
	}
	if now < 1.2 {
		t.Fatalf("NOW speedup %.2f; should be substantial", now)
	}
}

func TestRenderAndCSV(t *testing.T) {
	res := runExp(t, "figure7")
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"figure7", "remote-wait", "compute+synch", "|"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q\n%s", want, out)
		}
	}
	buf.Reset()
	res.CSV(&buf)
	if lines := strings.Count(buf.String(), "\n"); lines != 4 {
		t.Fatalf("csv lines = %d, want 4 (header + 3 rows)", lines)
	}
}
