// Benchmarks regenerating the paper's tables and figures, one per
// artifact. Each benchmark runs the corresponding harness experiment and
// reports the simulated machine's metrics alongside Go's wall-clock
// numbers:
//
//	vsec/op        virtual execution time of the headline version
//	speedup        the paper's headline ratio for that figure
//
// By default the benchmarks run the CI-sized (quick) workloads; set
// PRESTO_SCALE=paper to run the paper's Table 1 sizes (32 simulated
// nodes; several minutes).
package presto_test

import (
	"os"
	"testing"

	"presto"
	"presto/internal/harness"
	"presto/internal/network"
	"presto/internal/rt"
	"presto/internal/sim"
)

func benchScale() harness.Scale {
	return harness.ParseScale(os.Getenv("PRESTO_SCALE"))
}

func benchOptions() harness.Options {
	return harness.Options{Scale: benchScale()}
}

func runExperiment(b *testing.B, id string) *harness.Result {
	b.Helper()
	e, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var res *harness.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = e.Run(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkTable1Workloads runs all three applications at the selected
// scale under the predictive protocol (the paper's workload table).
func BenchmarkTable1Workloads(b *testing.B) {
	res := runExperiment(b, "table1")
	_ = res
	opts := benchOptions()
	var total sim.Time
	for i := 0; i < 1; i++ { // workloads themselves (once per bench run)
		for _, id := range []string{"figure7"} {
			e, _ := harness.ByID(id)
			r, err := e.Run(opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, row := range r.Rows {
				total += row.B.Elapsed
			}
		}
	}
	b.ReportMetric(total.Seconds(), "vsec")
}

// BenchmarkFigure4Compiler measures the compiler pipeline on the Barnes
// source (parse, summaries, CFG, data-flow, placement).
func BenchmarkFigure4Compiler(b *testing.B) {
	src, err := os.ReadFile("testdata/barnes.cstar")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := presto.Compile(string(src)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Adaptive regenerates the Adaptive comparison and
// reports the best-opt vs best-unopt speedup (paper: 1.56x).
func BenchmarkFigure5Adaptive(b *testing.B) {
	res := runExperiment(b, "figure5")
	bestOpt, _ := res.Best("C** opt")
	bestUnopt, _ := res.Best("C** unopt")
	b.ReportMetric(bestOpt.B.Elapsed.Seconds(), "vsec/op")
	b.ReportMetric(float64(bestUnopt.Total())/float64(bestOpt.Total()), "speedup")
}

// BenchmarkFigure6Barnes regenerates the Barnes five-version comparison
// and reports the paper's crossover ratio (unopt at 1024B vs opt at 32B).
func BenchmarkFigure6Barnes(b *testing.B) {
	res := runExperiment(b, "figure6")
	o32, _ := res.Find("C** opt (32)")
	u1024, _ := res.Find("C** unopt (1024)")
	b.ReportMetric(u1024.B.Elapsed.Seconds(), "vsec/op")
	b.ReportMetric(float64(o32.Total())/float64(u1024.Total()), "crossover")
}

// BenchmarkFigure7Water regenerates the Water three-version comparison
// and reports opt-vs-unopt (paper: ~1.05x) and opt-vs-Splash (paper:
// ~1.2x) speedups.
func BenchmarkFigure7Water(b *testing.B) {
	res := runExperiment(b, "figure7")
	opt, _ := res.Best("C** opt")
	unopt, _ := res.Best("C** unopt")
	splash, _ := res.Best("Splash")
	b.ReportMetric(opt.B.Elapsed.Seconds(), "vsec/op")
	b.ReportMetric(float64(unopt.Total())/float64(opt.Total()), "speedup")
	b.ReportMetric(float64(splash.Total())/float64(opt.Total()), "vs-splash")
}

// BenchmarkSweepBlockSizes regenerates the §5.4 block-size sweep.
func BenchmarkSweepBlockSizes(b *testing.B) {
	res := runExperiment(b, "sweep")
	var u32, o32 harness.Row
	for _, r := range res.Rows {
		if r.BlockSize == 32 {
			if r.Label == "water unopt (32)" {
				u32 = r
			} else {
				o32 = r
			}
		}
	}
	b.ReportMetric(float64(u32.B.RemoteWait)/float64(o32.B.RemoteWait+1), "waitratio32")
}

// BenchmarkAblateCoalescing measures the pre-send with and without bulk
// coalescing (paper §3.4).
func BenchmarkAblateCoalescing(b *testing.B) {
	res := runExperiment(b, "ablate-coalesce")
	on, off := res.Rows[0], res.Rows[1]
	b.ReportMetric(float64(off.B.Presend)/float64(on.B.Presend), "presend-saving")
}

// BenchmarkAblateConflicts measures the conflict-anticipation extension.
func BenchmarkAblateConflicts(b *testing.B) {
	res := runExperiment(b, "ablate-conflicts")
	b.ReportMetric(float64(res.Rows[0].C.Conflicts), "conflicts")
}

// BenchmarkAblateFlush measures schedule flushing under deletions.
func BenchmarkAblateFlush(b *testing.B) {
	res := runExperiment(b, "ablate-flush")
	never, flush := res.Rows[0], res.Rows[1]
	b.ReportMetric(float64(never.C.PresendsSent)/float64(flush.C.PresendsSent+1), "stale-presends")
}

// BenchmarkInspectorExecutor regenerates the §2 related-work comparison
// (predictive protocol vs CHAOS-style inspector-executor) and reports the
// adaptive-mesh total ratio.
func BenchmarkInspectorExecutor(b *testing.B) {
	res := runExperiment(b, "inspector")
	pred, _ := res.Find("adaptive mesh, predictive")
	ie, _ := res.Find("adaptive mesh, inspector")
	b.ReportMetric(pred.B.Elapsed.Seconds(), "vsec/op")
	b.ReportMetric(float64(pred.Total())/float64(ie.Total()), "vs-inspector")
}

// BenchmarkPlatforms regenerates the §5.4 platform tradeoff and reports
// the opt-vs-unopt speedup on each interconnect.
func BenchmarkPlatforms(b *testing.B) {
	res := runExperiment(b, "platforms")
	speedup := func(tag string) float64 {
		u, _ := res.Find(tag + " unopt")
		o, _ := res.Find(tag + " opt")
		return float64(u.Total()) / float64(o.Total())
	}
	b.ReportMetric(speedup("NOW"), "now-speedup")
	b.ReportMetric(speedup("CM-5"), "cm5-speedup")
	b.ReportMetric(speedup("hw-DSM"), "hwdsm-speedup")
}

// BenchmarkRemoteMiss measures the simulator's cost of one remote read
// miss end to end (protocol handlers, messages, virtual-time machinery).
func BenchmarkRemoteMiss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := rt.New(rt.Config{Nodes: 2, BlockSize: 32, Net: network.CM5()})
		arr := m.NewArray1D("a", 128, 1, false)
		if err := m.Run(func(w *rt.Worker) {
			if w.ID == 1 {
				for k := 0; k < 64; k++ {
					w.ReadF64(arr.At(k, 0))
				}
			}
			w.Barrier()
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPresendWalk measures the pre-send phase itself: schedule walk,
// coalescing and bulk transfer of 256 blocks.
func BenchmarkPresendWalk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := rt.New(rt.Config{Nodes: 2, BlockSize: 32, Protocol: rt.ProtoPredictive})
		arr := m.NewArray1D("a", 1024, 1, false)
		if err := m.Run(func(w *rt.Worker) {
			for it := 0; it < 3; it++ {
				w.Phase(1, func() {
					if w.ID == 0 {
						for k := 0; k < 512; k++ {
							w.WriteF64(arr.At(k, 0), float64(it))
						}
					}
				})
				w.Phase(2, func() {
					if w.ID == 1 {
						for k := 0; k < 512; k++ {
							w.ReadF64(arr.At(k, 0))
						}
					}
				})
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
}
