package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestPredictErrorGolden locks the predictor's figure 5-7 error table:
// the quick-scale predicted-vs-simulated comparison must reproduce byte
// for byte (virtual time makes both sides deterministic). Any model or
// workload change shows up as a reviewable golden diff (regenerate with
// -update). The serving layer's test compares its HTTP payload against
// the same file, closing the in-process-vs-HTTP identity loop.
func TestPredictErrorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("predict-error simulates every figure target (tens of seconds)")
	}
	e, ok := ByID("predict-error")
	if !ok {
		t.Fatal("predict-error not registered")
	}
	res, err := e.Run(Options{Scale: Quick})
	if err != nil {
		t.Fatal(err)
	}
	if res.Error == nil {
		t.Fatal("predict-error result carries no error table")
	}
	var buf bytes.Buffer
	res.CSV(&buf)
	path := filepath.Join("testdata", "golden", "predict-error.csv")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("predict-error CSV diverges from %s:\n--- got ---\n%s--- want ---\n%s",
			path, buf.Bytes(), want)
	}
}

// TestPredictFigureIdentity pins the predictor's identity guarantee at
// the harness level: figure5 rows at the calibration block size must be
// bit-identical between Options.Predict and the full simulation.
func TestPredictFigureIdentity(t *testing.T) {
	e, ok := ByID("figure5")
	if !ok {
		t.Fatal("figure5 not registered")
	}
	simRes, err := e.Run(Options{Scale: Quick})
	if err != nil {
		t.Fatal(err)
	}
	predRes, err := e.Run(Options{Scale: Quick, Predict: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"C** unopt (32)", "C** opt (32)"} {
		want, ok1 := simRes.Find(label)
		got, ok2 := predRes.Find(label)
		if !ok1 || !ok2 {
			t.Fatalf("row %q missing (sim %v, predict %v)", label, ok1, ok2)
		}
		if got.B != want.B {
			t.Errorf("%s: predicted breakdown %+v != simulated %+v", label, got.B, want.B)
		}
		if got.C != want.C {
			t.Errorf("%s: predicted counters %+v != simulated %+v", label, got.C, want.C)
		}
	}
	// Extrapolated rows must exist and carry nonzero forecasts.
	for _, label := range []string{"C** unopt (256)", "C** opt (256)"} {
		row, ok := predRes.Find(label)
		if !ok || row.B.Elapsed == 0 {
			t.Errorf("predicted row %q missing or empty", label)
		}
	}
}
