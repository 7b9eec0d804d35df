package harness

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"presto/internal/apps/adaptive"
	"presto/internal/rt"
)

// TestPredictedFigureCSVPoolDeterminism: a figure's calibrations are
// recorded side by side on the run pool, so its predicted CSV must be
// byte-identical whether one calibration runs at a time (GOMAXPROCS=1)
// or all of them overlap (GOMAXPROCS=4).
func TestPredictedFigureCSVPoolDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("records every figure calibration twice")
	}
	for _, id := range []string{"figure5", "figure6", "figure7", "sweep"} {
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			var csvs [][]byte
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				csv, _, err := RunCSV(e, Options{Scale: Quick, Predict: true})
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				csvs = append(csvs, csv)
			}
			if !bytes.Equal(csvs[0], csvs[1]) {
				t.Fatalf("predicted CSV differs between GOMAXPROCS 1 and 4:\n--- 1 ---\n%s--- 4 ---\n%s", csvs[0], csvs[1])
			}
		})
	}
}

// tinyCal is a calibration spec over a two-node Adaptive run small
// enough to record in milliseconds; builds counts its recordings.
func tinyCal(key string, builds *atomic.Int32) calSpec {
	return calSpec{key: key, app: "adaptive", build: func() (*rt.Machine, error) {
		builds.Add(1)
		r, err := adaptive.Run(adaptive.Config{
			Machine: rt.Config{Nodes: 2, BlockSize: predictCalBS, Protocol: rt.ProtoStache, Profile: true, Record: true},
			Size:    8, Iters: 2, RefineEvery: 1,
		})
		if err != nil {
			return nil, err
		}
		return r.Machine, nil
	}}
}

// TestCalibrateReportsFirstFailure: when the second of three pooled
// calibrations fails, calibrate reports that calibration's own error —
// not the third's, even when the third fails first in wall-clock time —
// and keeps the first cached, as a serial loop would.
func TestCalibrateReportsFirstFailure(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	errSecond, errThird := errors.New("second failed"), errors.New("third failed")
	var builds atomic.Int32
	specs := []calSpec{
		tinyCal("first", &builds),
		{key: "second", app: "adaptive", build: func() (*rt.Machine, error) {
			time.Sleep(20 * time.Millisecond) // let the third fail first
			return nil, errSecond
		}},
		{key: "third", app: "adaptive", build: func() (*rt.Machine, error) { return nil, errThird }},
	}
	p := newPredictor()
	err := p.calibrate(specs...)
	if !errors.Is(err, errSecond) || !strings.Contains(err.Error(), "calibrating second") {
		t.Fatalf("calibrate error = %v, want the second calibration's", err)
	}
	if p.cals["first"] == nil {
		t.Fatal("the first calibration, which succeeded, was not cached")
	}
	if _, ok := p.cals["third"]; ok {
		t.Fatal("a calibration past the failure was cached")
	}
	// A cached calibration is not recorded again, and a duplicate key in
	// one call is recorded once.
	if _, err := p.calibration(specs[0]); err != nil {
		t.Fatal(err)
	}
	if err := newPredictor().calibrate(tinyCal("dup", &builds), tinyCal("dup", &builds)); err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d recordings, want 2 (one per distinct uncached key)", n)
	}
}
