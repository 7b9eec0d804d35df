package main

import (
	"fmt"
	"strings"
	"time"

	"presto/internal/apps/adaptive"
	"presto/internal/apps/barnes"
	"presto/internal/apps/water"
	"presto/internal/chaos"
	"presto/internal/harness"
	"presto/internal/predict"
	"presto/internal/rt"
)

// Every workload runs at the harness's quick scale with default machine
// settings: no engine, worker, lookahead, stealing, scheduler or storage
// knob is set, so the same benchmark measures the program before and
// after those knobs are deleted.
var quick = harness.Options{Scale: harness.Quick}

// figure is one figure experiment's versions, run the way its harness
// experiment runs them at quick scale. A traced pass calls the apps
// directly through these; the golden check proves they match the
// harness's own configurations.
type figure struct {
	id       string
	versions []version
	// perLine is how many versions one CSV line stands for: figure 7
	// keeps the best of its block sizes per program version.
	perLine int
}

type version struct {
	label string
	proto rt.ProtocolKind
	bs    int
	app   string
	// run simulates the version with machine c (protocol and block size
	// already set) and returns the finished machine.
	run func(c rt.Config) (*rt.Machine, error)
}

func adaptiveV(label string, proto rt.ProtocolKind, bs int) version {
	return version{label, proto, bs, "adaptive", func(c rt.Config) (*rt.Machine, error) {
		c.Nodes = 16
		r, err := adaptive.Run(adaptive.Config{Machine: c, Size: 64, Iters: 30, RefineEvery: 4})
		if err != nil {
			return nil, err
		}
		return r.Machine, nil
	}}
}

func barnesV(label string, proto rt.ProtocolKind, bs int, spmd bool) version {
	return version{label, proto, bs, "barnes", func(c rt.Config) (*rt.Machine, error) {
		c.Nodes = 16
		r, err := barnes.Run(barnes.Config{Machine: c, SPMD: spmd, Bodies: 2048})
		if err != nil {
			return nil, err
		}
		return r.Machine, nil
	}}
}

func waterV(label string, proto rt.ProtocolKind, bs int, splash bool) version {
	return version{label, proto, bs, "water", func(c rt.Config) (*rt.Machine, error) {
		c.Nodes = 16
		r, err := water.Run(water.Config{Machine: c, Splash: splash, Molecules: 256, Steps: 8})
		if err != nil {
			return nil, err
		}
		return r.Machine, nil
	}}
}

func figures() []figure {
	f7 := figure{id: "figure7", perLine: 3}
	for _, v := range []struct {
		prefix string
		proto  rt.ProtocolKind
		splash bool
	}{{"C** opt", rt.ProtoPredictive, false}, {"C** unopt", rt.ProtoStache, false}, {"Splash", rt.ProtoStache, true}} {
		for _, bs := range []int{32, 128, 256} {
			f7.versions = append(f7.versions, waterV(fmt.Sprintf("%s (%d)", v.prefix, bs), v.proto, bs, v.splash))
		}
	}
	return []figure{
		{id: "figure5", perLine: 1, versions: []version{
			adaptiveV("C** unopt (32)", rt.ProtoStache, 32),
			adaptiveV("C** opt (32)", rt.ProtoPredictive, 32),
			adaptiveV("C** unopt (256)", rt.ProtoStache, 256),
			adaptiveV("C** opt (256)", rt.ProtoPredictive, 256),
		}},
		{id: "figure6", perLine: 1, versions: []version{
			barnesV("C** unopt (32)", rt.ProtoStache, 32, false),
			barnesV("C** opt (32)", rt.ProtoPredictive, 32, false),
			barnesV("C** unopt (1024)", rt.ProtoStache, 1024, false),
			barnesV("C** opt (1024)", rt.ProtoPredictive, 1024, false),
			barnesV("SPMD write-update (1024)", rt.ProtoUpdate, 1024, true),
		}},
		f7,
	}
}

// keepBest reduces figure 7's block-size sweep to the fastest row per
// program version (the first on ties), as the harness does.
func keepBest(rows []harness.Row, perLine int) []harness.Row {
	if perLine == 1 {
		return rows
	}
	var out []harness.Row
	for i := 0; i < len(rows); i += perLine {
		best := rows[i]
		for _, r := range rows[i+1 : i+perLine] {
			if r.Total() < best.Total() {
				best = r
			}
		}
		out = append(out, best)
	}
	return out
}

func csvOf(id string, rows []harness.Row) []byte {
	var b strings.Builder
	(&harness.Result{ID: id, Rows: rows}).CSV(&b)
	return []byte(b.String())
}

func experiment(id string) harness.Experiment {
	e, ok := harness.ByID(id)
	if !ok {
		panic("harness has no experiment " + id)
	}
	return e
}

// paperFigures is the researcher's main path: figures 5-7 simulated at
// quick scale, then the two cstar programs compiled and interpreted.
type paperFigures struct {
	figs   []figure
	golden map[string][]byte
	cstar  []cstar
}

func (w *paperFigures) setup(c config) error {
	w.figs = figures()
	if c.short {
		w.figs = w.figs[:1]
	}
	w.golden = map[string][]byte{}
	for _, f := range w.figs {
		g, err := readGolden(c, f.id+".csv")
		if err != nil {
			return err
		}
		w.golden[f.id] = g
	}
	var err error
	w.cstar, err = loadCstar(c)
	return err
}

func (w *paperFigures) run(p *pass) {
	for _, f := range w.figs {
		csv, _, err := harness.RunCSV(experiment(f.id), quick)
		p.checkCSV(f.id, csv, err, w.golden[f.id], len(f.versions), f.perLine)
	}
	p.runCstar(w.cstar, false)
}

func (w *paperFigures) trace(p *pass) {
	for _, f := range w.figs {
		var rows []harness.Row
		var failed error
		for _, v := range f.versions {
			var m *rt.Machine
			var err error
			d := timed(func() { m, err = v.run(rt.Config{BlockSize: v.bs, Protocol: v.proto}) })
			p.add("harness."+f.id+"_s", d.Seconds())
			if err != nil {
				failed = fmt.Errorf("%s: %w", v.label, err)
				break
			}
			p.machine(m, d)
			rows = append(rows, harness.Row{Label: v.label, BlockSize: v.bs, B: m.Breakdown(), C: m.Counters()})
		}
		var csv []byte
		if failed == nil {
			csv = csvOf(f.id, keepBest(rows, f.perLine))
		}
		p.checkCSV(f.id, csv, failed, w.golden[f.id], len(f.versions), f.perLine)
	}
	p.runCstar(w.cstar, true)
}

// kilonode is the scaling curve: four topologies to 1024 nodes with
// aggregation off and on. Per-node footprint dominates it.
type kilonode struct{ golden []byte }

// cells is the number of (topology, nodes, aggregation) cells in the golden.
func (w *kilonode) cells() int { return strings.Count(string(w.golden), "\n") - 1 }

func (w *kilonode) setup(c config) error {
	var err error
	w.golden, err = readGolden(c, "scale.csv")
	return err
}

func (w *kilonode) run(p *pass) {
	csv, _, err := harness.RunCSV(experiment("scale"), quick)
	p.checkCSV("scale", csv, err, w.golden, w.cells(), 1)
}

func (w *kilonode) trace(p *pass) {
	var csv []byte
	var res *harness.Result
	var err error
	d := timed(func() { csv, res, err = harness.RunCSV(experiment("scale"), quick) })
	p.add("harness.scale_s", d.Seconds())
	p.checkCSV("scale", csv, err, w.golden, w.cells(), 1)
	if err != nil {
		return
	}
	// The scale experiment returns its points, not its machines: the
	// simulated traffic is visible, the kernel's dispatch counts are not.
	for _, pt := range res.Curve.Points {
		p.count(rt.Counters{MsgsSent: pt.Msgs, BytesSent: pt.BytesSent, CrossMsgs: pt.CrossMsgs, AggMsgs: pt.AggMsgs})
	}
}

// predictWL answers figures 5-7 analytically: one recorded calibration
// per (program, protocol, variant), every row predicted from it.
type predictWL struct {
	figs   []figure
	golden predictGolden
}

func (w *predictWL) setup(c config) error {
	w.figs = figures()
	if c.short {
		w.figs = w.figs[2:]
	}
	var err error
	w.golden, err = loadPredictGolden(c)
	return err
}

// rows is the number of rows a figure's predicted CSV has.
func (f figure) rows() int { return len(f.versions) / f.perLine }

func (w *predictWL) run(p *pass) {
	for _, f := range w.figs {
		csv, _, err := harness.RunCSV(experiment(f.id), harness.Options{Scale: harness.Quick, Predict: true})
		if err != nil {
			p.fail(f.rows(), f.rows(), "%s: %v", f.id, err)
			continue
		}
		w.checkRows(p, f, string(csv))
	}
}

// checkRows fails each predicted row whose elapsed time differs from
// predicted_s in predict-error.csv, and each row missing or extra.
func (w *predictWL) checkRows(p *pass, f figure, csv string) {
	lines := strings.Split(strings.TrimSpace(csv), "\n")[1:]
	bad := 0
	for _, line := range lines {
		fs := strings.Split(line, ",")
		if len(fs) < 4 {
			bad++
			p.failures = append(p.failures, fmt.Sprintf("%s: malformed predicted row %q", f.id, line))
			continue
		}
		g, ok := w.golden[f.id+","+fs[1]]
		if !ok || fs[3] != g.predicted {
			bad++
			p.failures = append(p.failures, fmt.Sprintf("%s: predicted row %q, golden predicted_s %q", f.id, line, g.predicted))
		}
	}
	if n := len(lines) - f.rows(); n != 0 {
		bad += max(n, -n)
		p.failures = append(p.failures, fmt.Sprintf("%s: %d predicted rows, want %d", f.id, len(lines), f.rows()))
	}
	p.attempted += f.rows()
	p.failed += min(bad, f.rows())
}

func (w *predictWL) trace(p *pass) {
	table := &predict.ErrorTable{}
	var predictUS []float64
	for _, f := range w.figs {
		cals := map[string]*predict.Calibration{}
		var rows []harness.Row
		var failed error
		for _, v := range f.versions {
			key := v.app + "/" + string(v.proto) + "/" + strings.SplitN(v.label, " (", 2)[0]
			cal := cals[key]
			if cal == nil {
				var m *rt.Machine
				var err error
				d := timed(func() {
					m, err = v.run(rt.Config{BlockSize: 32, Protocol: v.proto, Profile: true, Record: true})
				})
				p.add("predict.record_run_s", d.Seconds())
				if err != nil {
					failed = fmt.Errorf("calibrating %s: %w", key, err)
					break
				}
				p.machine(m, d)
				d = timed(func() { cal, err = predict.Calibrate(m, v.app) })
				p.add("predict.calibrate_s", d.Seconds())
				if err != nil {
					failed = fmt.Errorf("calibrating %s: %w", key, err)
					break
				}
				cals[key] = cal
			}
			var pr predict.Prediction
			var err error
			d := timed(func() { pr, err = cal.Predict(predict.Target{BlockSize: v.bs}) })
			predictUS = append(predictUS, float64(d.Nanoseconds())/1e3)
			if err != nil {
				failed = fmt.Errorf("%s: %w", v.label, err)
				break
			}
			rows = append(rows, harness.Row{Label: v.label, BlockSize: v.bs, B: pr.Breakdown, C: pr.Counters})
		}
		if failed != nil {
			p.fail(f.rows(), f.rows(), "%s: %v", f.id, failed)
			continue
		}
		best := keepBest(rows, f.perLine)
		w.checkRows(p, f, string(csvOf(f.id, best)))
		for _, r := range best {
			if g, ok := w.golden[f.id+","+r.Label]; ok {
				table.Add(f.id, r.Label, r.BlockSize, int64(r.B.Elapsed), g.simNS)
			}
		}
	}
	p.layer["predict.predict_us"] = quantile(predictUS, 0.5)
	p.layer["predict.mae_pct"] = table.MAE()
}

// chaosBand is the protofuzz campaign: consecutive quick-scale seeds
// through the differential oracle. Pass k of a run covers the k-th band
// of chaosSeeds seeds from the workload seed, so a run's median spans
// several bands instead of repeating one whose cost depends on which
// seeds it drew.
type chaosBand struct {
	start int64
	seeds int
}

// chaosSeeds is the band length of one pass.
const chaosSeeds = 100

func (w *chaosBand) setup(c config) error {
	w.start, w.seeds = c.seed+int64(c.pass)*chaosSeeds, chaosSeeds
	if c.short {
		w.seeds = 5
	}
	return nil
}

func (w *chaosBand) run(p *pass) {
	// MaxFailures and NoShrink only bound the campaign's work once a seed
	// fails, so that a regression is counted rather than minimized.
	rep := chaos.Fuzz(chaos.Options{Seeds: w.seeds, Start: w.start, MaxFailures: w.seeds, NoShrink: true})
	p.attempted += w.seeds
	p.failed += len(rep.Failures) + w.seeds - rep.SeedsRun
	for _, f := range rep.Failures {
		p.failures = append(p.failures, fmt.Sprintf("chaos seed %d: %s", f.Seed, strings.Join(f.Result.Failures, "; ")))
	}
}

func (w *chaosBand) trace(p *pass) {
	var seedMS, serialMS []float64
	for i := 0; i < w.seeds; i++ {
		seed := w.start + int64(i)
		var r chaos.SeedResult
		d := timed(func() { r = chaos.RunSeed(seed, chaos.Options{}) })
		seedMS = append(seedMS, ms(d))
		p.simWall += d
		for _, fp := range r.Runs {
			p.kernel(fp.Kernel)
			p.count(fp.Counters)
		}
		var fp chaos.Fingerprint
		d = timed(func() { fp = chaos.ExecuteRun(r.Spec, chaos.RunConfig{}) })
		serialMS = append(serialMS, ms(d))
		p.simWall += d
		p.kernel(fp.Kernel)
		p.count(fp.Counters)
		switch {
		case r.Failed():
			p.fail(1, 1, "chaos seed %d: %s", seed, strings.Join(r.Failures, "; "))
		case !fp.Clean():
			p.fail(1, 1, "chaos seed %d: serial run: %s", seed, fp)
		default:
			p.ok(1)
		}
	}
	p.layer["chaos.seed_ms_p50"] = quantile(seedMS, 0.5)
	p.layer["chaos.seed_ms_p90"] = quantile(seedMS, 0.9)
	p.layer["chaos.serial_run_ms_p50"] = quantile(serialMS, 0.5)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
