package harness

import (
	"fmt"
	"time"

	"presto/internal/apps/adaptive"
	"presto/internal/apps/barnes"
	"presto/internal/apps/water"
	"presto/internal/network"
	"presto/internal/predict"
	"presto/internal/rt"
	"presto/internal/runpool"
)

// predictCalBS is the block size every calibration simulation runs at.
// The predictor extrapolates upward from it (predict.MaxShift powers of
// two), which covers every block size the figure experiments sweep.
const predictCalBS = 32

// predictor caches one calibration per (application, protocol, variant)
// so a figure experiment's block-size sweep — or the whole predict-error
// table — pays for each calibration simulation exactly once.
type predictor struct {
	cals map[string]*predict.Calibration
}

func newPredictor() *predictor {
	return &predictor{cals: map[string]*predict.Calibration{}}
}

// calSpec names one calibration: its cache key, the application and the
// recorded run. build must run the application at predictCalBS with the
// profiler and recorder enabled.
type calSpec struct {
	key, app string
	build    func() (*rt.Machine, error)
}

// run records the calibration simulation and distills it.
func (s calSpec) run() (*predict.Calibration, error) {
	m, err := s.build()
	if err != nil {
		return nil, fmt.Errorf("calibrating %s: %w", s.key, err)
	}
	cal, err := predict.Calibrate(m, s.app)
	if err != nil {
		return nil, fmt.Errorf("calibrating %s: %w", s.key, err)
	}
	return cal, nil
}

// calibrate records every listed calibration not yet cached, side by
// side on the run pool (each is an independent single-threaded
// simulation), and caches them in list order. It returns the error of
// the first failing one in list order — the one a serial loop would
// have stopped at — leaving the calibrations before it cached.
func (p *predictor) calibrate(specs ...calSpec) error {
	var todo []calSpec
	queued := map[string]bool{}
	for _, s := range specs {
		if _, ok := p.cals[s.key]; !ok && !queued[s.key] {
			queued[s.key] = true
			todo = append(todo, s)
		}
	}
	type outcome struct {
		cal *predict.Calibration
		err error
	}
	var err error
	runpool.Ordered(nil, len(todo), func(i int) outcome {
		cal, err := todo[i].run()
		return outcome{cal, err}
	}, func(i int, o outcome) bool {
		if o.err != nil {
			err = o.err
			return false
		}
		p.cals[todo[i].key] = o.cal
		return true
	})
	return err
}

// calibration returns s's calibration, recording it if not yet cached.
func (p *predictor) calibration(s calSpec) (*predict.Calibration, error) {
	if err := p.calibrate(s); err != nil {
		return nil, err
	}
	return p.cals[s.key], nil
}

func adaptiveCal(o Options, proto rt.ProtocolKind) calSpec {
	return calSpec{key: "adaptive/" + string(proto), app: "adaptive", build: func() (*rt.Machine, error) {
		cfg := adaptiveCfg(o, proto, predictCalBS)
		cfg.Machine.Profile = true
		cfg.Machine.Record = true
		r, err := adaptive.Run(cfg)
		if err != nil {
			return nil, err
		}
		return r.Machine, nil
	}}
}

func barnesCal(o Options, proto rt.ProtocolKind, spmd bool) calSpec {
	return calSpec{key: fmt.Sprintf("barnes/%s/spmd=%v", proto, spmd), app: "barnes", build: func() (*rt.Machine, error) {
		cfg := barnesCfg(o, proto, predictCalBS, spmd)
		cfg.Machine.Profile = true
		cfg.Machine.Record = true
		r, err := barnes.Run(cfg)
		if err != nil {
			return nil, err
		}
		return r.Machine, nil
	}}
}

func waterCal(o Options, proto rt.ProtocolKind, splash bool) calSpec {
	return calSpec{key: fmt.Sprintf("water/%s/splash=%v", proto, splash), app: "water", build: func() (*rt.Machine, error) {
		cfg := waterCfg(o, proto, predictCalBS, splash)
		cfg.Machine.Profile = true
		cfg.Machine.Record = true
		r, err := water.Run(cfg)
		if err != nil {
			return nil, err
		}
		return r.Machine, nil
	}}
}

// predictedRow extrapolates one figure row from a calibration. At the
// calibration block size the row is bit-identical to the simulated row.
func predictedRow(cal *predict.Calibration, label string, bs int) (Row, error) {
	pr, err := cal.Predict(predict.Target{BlockSize: bs})
	if err != nil {
		return Row{}, fmt.Errorf("%s: %w", label, err)
	}
	return Row{Label: label, BlockSize: bs, B: pr.Breakdown, C: pr.Counters}, nil
}

// PredictCapable reports whether an experiment honors Options.Predict —
// the figure sweeps and the block-size sweep, whose rows are
// (application, protocol, block size) points a calibration extrapolates
// to. The serving layer rejects predict specs for any other experiment so
// the spec space stays canonical (a predict flag that changes nothing
// must not mint a second cache identity for the same result).
func PredictCapable(id string) bool {
	switch id {
	case "figure5", "figure6", "figure7", "sweep":
		return true
	}
	return false
}

// predictNote annotates a figure result produced by the analytical path.
func predictNote(res *Result, cals int) {
	res.AddNote("rows predicted analytically from %d recorded %dB calibration run(s) — no per-row simulation (internal/predict)",
		cals, predictCalBS)
}

func init() {
	Register(Experiment{
		ID:    "predict-error",
		Title: "Analytical predictor vs full simulation (figure 5-7 sweeps)",
		Paper: "The predictor answers the figure 5-7 block-size sweeps from one calibration simulation per program/protocol; this experiment validates every predicted elapsed time against the corresponding full simulation.",
		Run:   runPredictError,
	})
}

// figureTargets enumerates every figure 5-7 (version, block size)
// configuration the predictor must reproduce, keyed by the calibration it
// extrapolates from.
type figureTarget struct {
	experiment string
	label      string
	bs         int
	cal        func(Options) calSpec
	sim        func(Options) (rt.Breakdown, error)
}

func figureTargets() []figureTarget {
	var out []figureTarget
	// Figure 5: Adaptive, stache vs predictive at 32B and 256B.
	for _, v := range []struct {
		label string
		proto rt.ProtocolKind
		bs    int
	}{
		{"C** unopt (32)", rt.ProtoStache, 32},
		{"C** opt (32)", rt.ProtoPredictive, 32},
		{"C** unopt (256)", rt.ProtoStache, 256},
		{"C** opt (256)", rt.ProtoPredictive, 256},
	} {
		v := v
		out = append(out, figureTarget{
			experiment: "figure5", label: v.label, bs: v.bs,
			cal: func(o Options) calSpec { return adaptiveCal(o, v.proto) },
			sim: func(o Options) (rt.Breakdown, error) {
				r, err := adaptive.Run(adaptiveCfg(o, v.proto, v.bs))
				if err != nil {
					return rt.Breakdown{}, err
				}
				return r.Breakdown, nil
			},
		})
	}
	// Figure 6: Barnes, including the hand-optimized SPMD write-update bar.
	for _, v := range []struct {
		label string
		proto rt.ProtocolKind
		bs    int
		spmd  bool
	}{
		{"C** unopt (32)", rt.ProtoStache, 32, false},
		{"C** opt (32)", rt.ProtoPredictive, 32, false},
		{"C** unopt (1024)", rt.ProtoStache, 1024, false},
		{"C** opt (1024)", rt.ProtoPredictive, 1024, false},
		{"SPMD write-update (1024)", rt.ProtoUpdate, 1024, true},
	} {
		v := v
		out = append(out, figureTarget{
			experiment: "figure6", label: v.label, bs: v.bs,
			cal: func(o Options) calSpec { return barnesCal(o, v.proto, v.spmd) },
			sim: func(o Options) (rt.Breakdown, error) {
				r, err := barnes.Run(barnesCfg(o, v.proto, v.bs, v.spmd))
				if err != nil {
					return rt.Breakdown{}, err
				}
				return r.Breakdown, nil
			},
		})
	}
	// Figure 7: Water sweeps each version over three block sizes.
	for _, v := range []struct {
		prefix string
		proto  rt.ProtocolKind
		splash bool
	}{
		{"C** opt", rt.ProtoPredictive, false},
		{"C** unopt", rt.ProtoStache, false},
		{"Splash", rt.ProtoStache, true},
	} {
		v := v
		for _, bs := range []int{32, 128, 256} {
			bs := bs
			out = append(out, figureTarget{
				experiment: "figure7", label: fmt.Sprintf("%s (%d)", v.prefix, bs), bs: bs,
				cal: func(o Options) calSpec { return waterCal(o, v.proto, v.splash) },
				sim: func(o Options) (rt.Breakdown, error) {
					r, err := water.Run(waterCfg(o, v.proto, bs, v.splash))
					if err != nil {
						return rt.Breakdown{}, err
					}
					return r.Breakdown, nil
				},
			})
		}
	}
	return out
}

// runPredictError validates the analytical predictor against full
// simulation on every figure 5-7 configuration: one calibration per
// (program, protocol, variant), one simulation per target, one error row
// each. The table is the experiment's CSV payload (and the golden under
// testdata/golden/predict-error.csv).
func runPredictError(o Options) (*Result, error) {
	table, err := FigureErrorTable(o)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "predict-error",
		Title: "Analytical predictor vs full simulation",
		Error: table,
	}
	res.AddNote("mean absolute elapsed-time error %.2f%% over %d figure 5-7 configurations (max %.2f%%)",
		table.MAE(), len(table.Rows), table.MaxErr())
	res.AddNote("rows at the %dB calibration size are exact by construction (the predictor's identity guarantee)", predictCalBS)
	return res, nil
}

// FigureErrorTable builds the predicted-vs-simulated comparison over the
// figure 5-7 sweeps — the structured half of the CI predict-validate gate
// (the other half is the chaos seed band, predict.ChaosBandShifts). The
// distinct calibrations, then the per-target simulations, run side by
// side on the run pool; rows are added, and the first error is
// reported, in target order, as a serial loop over the targets would.
func FigureErrorTable(o Options) (*predict.ErrorTable, error) {
	targets := figureTargets()
	specs := make([]calSpec, len(targets))
	for i, t := range targets {
		specs[i] = t.cal(o)
	}
	p := newPredictor()
	calErr := p.calibrate(specs...)
	type simOutcome struct {
		bd  rt.Breakdown
		err error
	}
	table := &predict.ErrorTable{}
	var err error
	runpool.Ordered(nil, len(targets), func(i int) simOutcome {
		if p.cals[specs[i].key] == nil {
			return simOutcome{} // calibration failed: nothing to compare
		}
		bd, err := targets[i].sim(o)
		return simOutcome{bd, err}
	}, func(i int, v simOutcome) bool {
		t := targets[i]
		cal := p.cals[specs[i].key]
		if cal == nil {
			// Only targets at or past the first failing calibration's
			// first user find their calibration missing.
			err = fmt.Errorf("%s %s: %w", t.experiment, t.label, calErr)
			return false
		}
		pred, perr := cal.Predict(predict.Target{BlockSize: t.bs})
		if perr != nil {
			err = fmt.Errorf("%s %s: %w", t.experiment, t.label, perr)
			return false
		}
		if v.err != nil {
			err = fmt.Errorf("%s %s: simulating: %w", t.experiment, t.label, v.err)
			return false
		}
		table.Add(t.experiment, t.label, t.bs, pred.ElapsedNS, int64(v.bd.Elapsed))
		return true
	})
	if err != nil {
		return nil, err
	}
	return table, nil
}

// SweepBench is the predictor's headline performance artifact: the wall
// clock of answering a large parameter sweep analytically versus
// simulating every configuration (BENCH_kernel.json predict_sweep).
type SweepBench struct {
	// Configs is the number of distinct (block size, network, node count)
	// targets predicted.
	Configs int `json:"configs"`
	// CalibrationMS is the one-time cost: the recorded calibration
	// simulation plus trace distillation.
	CalibrationMS float64 `json:"calibration_ms"`
	// PredictTotalMS is the wall clock of predicting every target.
	PredictTotalMS float64 `json:"predict_total_ms"`
	// SimPerConfigMS is one measured full simulation of an extrapolated
	// configuration — the per-config price the predictor avoids.
	SimPerConfigMS float64 `json:"sim_per_config_ms"`
	// SweepSpeedup is (Configs × SimPerConfigMS) / PredictTotalMS: how
	// much faster the sweep itself runs once calibrated.
	SweepSpeedup float64 `json:"sweep_speedup"`
	// AmortizedSpeedup charges the calibration to the sweep:
	// (Configs × SimPerConfigMS) / (CalibrationMS + PredictTotalMS).
	AmortizedSpeedup float64 `json:"amortized_speedup"`
}

// PredictSweepBench calibrates once (Adaptive, stache) and times a
// configs-point sweep over block sizes × network presets × node counts,
// against the measured cost of one full simulation per configuration.
func PredictSweepBench(o Options, configs int) (*SweepBench, error) {
	start := time.Now()
	cal, err := adaptiveCal(o, rt.ProtoStache).run()
	if err != nil {
		return nil, err
	}
	calMS := float64(time.Since(start).Nanoseconds()) / 1e6

	start = time.Now()
	if _, err := adaptive.Run(adaptiveCfg(o, rt.ProtoStache, 2*predictCalBS)); err != nil {
		return nil, err
	}
	simMS := float64(time.Since(start).Nanoseconds()) / 1e6

	var nets []*network.Params
	for _, name := range []string{"cm5", "now", "hwdsm", "cluster:4x8"} {
		np, err := network.Preset(name)
		if err != nil {
			return nil, err
		}
		nets = append(nets, np)
	}

	done := 0
	start = time.Now()
sweep:
	for n := 2; ; n++ {
		for _, np := range nets {
			for k := 0; k <= predict.MaxShift; k++ {
				if done >= configs {
					break sweep
				}
				t := predict.Target{BlockSize: predictCalBS << k, Net: np, Nodes: n}
				if _, err := cal.Predict(t); err != nil {
					return nil, fmt.Errorf("sweep config %+v: %w", t, err)
				}
				done++
			}
		}
	}
	predMS := float64(time.Since(start).Nanoseconds()) / 1e6

	total := float64(configs) * simMS
	return &SweepBench{
		Configs:          configs,
		CalibrationMS:    calMS,
		PredictTotalMS:   predMS,
		SimPerConfigMS:   simMS,
		SweepSpeedup:     total / predMS,
		AmortizedSpeedup: total / (calMS + predMS),
	}, nil
}

// PredictValidation builds the combined error table the CI
// predict-validate job gates on: every figure 5-7 configuration plus a
// chaos seed band at the 2x block-size extrapolation (shift 1). Wider
// chaos extrapolations are validated separately with a looser bound
// (predict.ChaosBand; DESIGN.md §13).
func PredictValidation(o Options, seeds int) (*predict.ErrorTable, error) {
	table, err := FigureErrorTable(o)
	if err != nil {
		return nil, err
	}
	band, err := predict.ChaosBandShifts(seeds, []int{1})
	if err != nil {
		return nil, err
	}
	table.Rows = append(table.Rows, band.Rows...)
	return table, nil
}
