package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testConfig(workload string, traced bool) config {
	return config{
		workload:  workload,
		seed:      1,
		traced:    traced,
		short:     true,
		root:      "..",
		goldenDir: filepath.Join("..", "internal", "harness", "testdata", "golden"),
		t0:        time.Now(),
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the printed metrics and the
// benchmark's declaration in step: same names, same units, same order.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, perfbench prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), perfbench prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	// run.py appends trace.overhead_s to the traced pass's metrics.
	check("per_layer", spec.PerLayer, append(append([]metricDef(nil), perLayer...), metricDef{"trace.overhead_s", "s"}))
}

// TestAlteredGoldenFails proves the output checks cannot silently pass:
// one changed byte in a golden file fails ops, traced or not.
func TestAlteredGoldenFails(t *testing.T) {
	for _, tc := range []struct {
		workload, file, from, to string
	}{
		{"paper-figures", "figure5.csv", "0.895035", "0.895036"},
		{"predict", "predict-error.csv", "0.188384", "0.188385"},
	} {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			c := testConfig(tc.workload, traced)
			for _, name := range []string{"figure5.csv", "figure6.csv", "figure7.csv", "scale.csv", "predict-error.csv"} {
				b, err := os.ReadFile(filepath.Join(c.goldenDir, name))
				if err != nil {
					t.Fatal(err)
				}
				if name == tc.file {
					if !strings.Contains(string(b), tc.from) {
						t.Fatalf("%s has no %s to alter", name, tc.from)
					}
					b = []byte(strings.Replace(string(b), tc.from, tc.to, 1))
				}
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			c.goldenDir = dir
			res, err := runPass(c)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 || res.Attempted == 0 {
				t.Errorf("%s (traced=%v) against altered %s: %d of %d ops failed, want > 0",
					tc.workload, traced, tc.file, res.Failed, res.Attempted)
			}
		}
	}
}

// TestMain lets the smoke test re-run this binary as a single pass, so
// that each pass gets a fresh process as it does under run.py.
func TestMain(m *testing.M) {
	if w := os.Getenv("PERFBENCH_SMOKE_PASS"); w != "" {
		res, err := runPass(testConfig(w, os.Getenv("PERFBENCH_SMOKE_TRACE") == "1"))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmokeEveryWorkload runs a short pass of every workload, untraced
// and traced, each in its own process, and expects no failed op and every
// metric printed. The end-to-end metrics must never read 0. kilonode has
// no smaller form and runs whole.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []string{"paper-figures", "predict", "chaos-band", "kilonode"} {
		for _, traced := range []bool{false, true} {
			cmd := exec.Command(os.Args[0], "-test.run=^$")
			cmd.Env = append(os.Environ(), "PERFBENCH_SMOKE_PASS="+w)
			if traced {
				cmd.Env = append(cmd.Env, "PERFBENCH_SMOKE_TRACE=1")
			}
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w, traced, err)
			}
			var res passResult
			if err := json.Unmarshal(out, &res); err != nil {
				t.Fatalf("%s (traced=%v): %v", w, traced, err)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s (traced=%v): %d of %d ops failed: %v", w, traced, res.Failed, res.Attempted, res.Failures)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (traced=%v): %d metrics, want %d", w, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || (!traced && v.Value <= 0) {
					t.Errorf("%s (traced=%v): %s = %v (present %v)", w, traced, d.name, v.Value, ok)
				}
			}
			if traced && w == "chaos-band" && res.Metrics["sim.events"].Value == 0 {
				t.Errorf("chaos-band traced pass saw no simulated events")
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"presto/internal/sim.(*Kernel).Run":                "sim",
		"presto/internal/apps/barnes.Run.func1":            "apps",
		"presto/internal/tempest.(*CommRecord).NoteAccess": "tempest",
		"runtime.mallocgc":                                 "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":     "runtime",
		"runtime/internal/syscall.Syscall6":                "runtime",
		"sort.Slice":                                       "sort",
		"main.runPass":                                     "main",
		"":                                                 "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
