package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"presto/internal/rt"
	"presto/internal/sim"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced pass, in print order.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"alloc_objects_m", "M"},
	{"retained_heap_mb", "MB"},
}

// cpuLayers, allocLayers and inuseLayers are the layers whose profile
// shares a traced pass reports; every other package folds into "other".
var (
	cpuLayers   = []string{"sim", "stache", "core", "update", "memory", "blockstate", "tempest", "network", "predict", "causal", "check", "interp", "apps", "runtime", "other"}
	allocLayers = []string{"update", "memory", "blockstate", "metrics", "tempest", "sim", "other"}
	inuseLayers = []string{"update", "memory", "blockstate", "metrics", "tempest", "sim", "other"}
)

// perLayer are the metrics of a traced pass, in print order. run.py adds
// trace.overhead_s, which needs an untraced pass to subtract.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.resumes", "count"},
		{"sim.max_queue", "count"},
		{"sim.host_ns_per_event", "ns"},
		{"sim.procs_retained", "count"},
		{"proto.read_faults", "count"},
		{"proto.write_faults", "count"},
		{"core.presends_sent", "count"},
		{"core.presends_skipped", "count"},
		{"core.presend_coverage", "ratio"},
		{"core.presend_accuracy", "ratio"},
		{"tempest.msgs", "count"},
		{"tempest.bytes", "bytes"},
		{"tempest.bulk_msgs", "count"},
		{"tempest.cross_msgs", "count"},
		{"tempest.agg_msgs", "count"},
		{"predict.record_run_s", "s"},
		{"predict.calibrate_s", "s"},
		{"predict.predict_us", "us"},
		{"predict.mae_pct", "%"},
		{"chaos.seed_ms_p50", "ms"},
		{"chaos.seed_ms_p90", "ms"},
		{"chaos.serial_run_ms_p50", "ms"},
		{"compiler.analyze_ms", "ms"},
		{"interp.run_s", "s"},
		{"harness.figure5_s", "s"},
		{"harness.figure6_s", "s"},
		{"harness.figure7_s", "s"},
		{"harness.scale_s", "s"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_pct", "%"},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_pct", "%"})
	}
	for _, l := range allocLayers {
		defs = append(defs, metricDef{l + ".alloc_mb", "MB"})
	}
	for _, l := range inuseLayers {
		defs = append(defs, metricDef{l + ".inuse_mb", "MB"})
	}
	return defs
}()

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// host is the shape every number is keyed by: a figure from a 1-CPU host
// is never compared with one from a 2-CPU host.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOARCH     string `json:"goarch"`
}

// passResult is the JSON line a pass prints.
type passResult struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Seed      int64    `json:"seed"`
	Host      host     `json:"host"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// WallS is the pass's wall time, traced or not.
	WallS   float64          `json:"wall_s"`
	Metrics map[string]value `json:"metrics"`
}

// workload is one benchmark workload. setup runs before the first timed
// op and is charged to setup_s; run is the untraced pass through the
// public entry points; trace is the traced pass, which calls the layers
// directly enough to time them.
type workload interface {
	setup(c config) error
	run(p *pass)
	trace(p *pass)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "paper-figures":
		return &paperFigures{}, nil
	case "kilonode":
		return &kilonode{}, nil
	case "predict":
		return &predictWL{}, nil
	case "chaos-band":
		return &chaosBand{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// pass accumulates one pass's op outcomes and, when traced, the layer
// counters and timings its workload records.
type pass struct {
	attempted, failed int
	failures          []string

	// Simulator totals over every machine the traced pass could observe.
	events, resumes int64
	maxQueue        int
	simWall         time.Duration // host time of the calls that dispatched events
	counters        rt.Counters
	hits, faults    int64 // predictive pre-send hits and faults (coverage)
	presendsIn      int64 // predictive pre-sends received (accuracy)

	// layer holds the traced pass's directly timed values by metric name.
	layer map[string]float64
}

// ok records n ops that succeeded.
func (p *pass) ok(n int) { p.attempted += n }

// fail records n ops of which bad failed, with the reason.
func (p *pass) fail(n, bad int, format string, args ...any) {
	p.attempted += n
	p.failed += bad
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// add accumulates a directly timed layer value.
func (p *pass) add(name string, v float64) { p.layer[name] += v }

// kernel records one machine's dispatch statistics.
func (p *pass) kernel(s sim.KernelStats) {
	p.events += s.Events
	p.resumes += s.Resumes
	if s.MaxQueue > p.maxQueue {
		p.maxQueue = s.MaxQueue
	}
}

// count records one machine's summed protocol counters.
func (p *pass) count(c rt.Counters) {
	p.counters.ReadFaults += c.ReadFaults
	p.counters.WriteFaults += c.WriteFaults
	p.counters.MsgsSent += c.MsgsSent
	p.counters.BytesSent += c.BytesSent
	p.counters.PresendsSent += c.PresendsSent
	p.counters.PresendsSkipped += c.PresendsSkipped
	p.counters.BulkMsgs += c.BulkMsgs
	p.counters.CrossMsgs += c.CrossMsgs
	p.counters.AggMsgs += c.AggMsgs
}

// machine records a finished machine that ran for wall host time.
func (p *pass) machine(m *rt.Machine, wall time.Duration) {
	p.simWall += wall
	p.kernel(m.Kernel.Stats())
	p.count(m.Counters())
	if m.Cfg.Protocol != rt.ProtoPredictive {
		return
	}
	for _, ph := range m.PhaseBreakdown() {
		p.hits += ph.PresendHits
		p.faults += ph.Faults()
		p.presendsIn += ph.PresendsIn
	}
}

// timed runs f and returns its host wall time.
func timed(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

// sample is the process state a pass is measured between.
type sample struct {
	at                    time.Time
	cpu                   time.Duration
	maxRSSKB              int64
	allocBytes, allocObjs uint64
	gcCycles              uint64
	gcCPU, totalCPU       float64
	liveHeap              uint64
	goroutines            int
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

func takeSample() sample {
	s := sample{at: time.Now(), goroutines: runtime.NumGoroutine()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.maxRSSKB = ru.Maxrss
	}
	ms := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s.allocBytes = ms[0].Value.Uint64()
	s.allocObjs = ms[1].Value.Uint64()
	s.gcCycles = ms[2].Value.Uint64()
	s.gcCPU = ms[3].Value.Float64()
	s.totalCPU = ms[4].Value.Float64()
	s.liveHeap = ms[5].Value.Uint64()
	return s
}

const mb = 1 << 20

// runPass sets the workload up, runs one untraced or traced pass over it
// and measures the pass.
func runPass(c config) (*passResult, error) {
	w, err := newWorkload(c.workload)
	if err != nil {
		return nil, err
	}
	if err := w.setup(c); err != nil {
		return nil, fmt.Errorf("%s setup: %w", c.workload, err)
	}
	p := &pass{layer: map[string]float64{}}
	res := &passResult{
		Workload: c.workload,
		Traced:   c.traced,
		Seed:     c.seed,
		Host:     host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOARCH},
		Metrics:  map[string]value{},
	}
	switch {
	case c.setupOnly:
		res.Metrics["setup_s"] = value{time.Since(c.t0).Seconds(), "s"}
	case c.traced:
		if err := tracePass(w, p, res); err != nil {
			return nil, err
		}
	default:
		untracedPass(c, w, p, res)
	}
	res.Attempted, res.Failed, res.Failures = p.attempted, p.failed, p.failures
	return res, nil
}

func untracedPass(c config, w workload, p *pass, res *passResult) {
	before := takeSample()
	setup := before.at.Sub(c.t0)
	w.run(p)
	after := takeSample()
	// A forced collection leaves only what the program still references:
	// the pass's own results are out of scope by now.
	runtime.GC()
	live := takeSample().liveHeap
	wall := after.at.Sub(before.at)
	res.WallS = wall.Seconds()
	v := map[string]float64{
		"wall_s":           wall.Seconds(),
		"cpu_s":            (after.cpu - before.cpu).Seconds(),
		"setup_s":          setup.Seconds(),
		"ops_per_s":        float64(p.attempted) / wall.Seconds(),
		"peak_rss_mb":      float64(after.maxRSSKB) / 1024,
		"alloc_mb":         float64(after.allocBytes-before.allocBytes) / mb,
		"alloc_objects_m":  float64(after.allocObjs-before.allocObjs) / 1e6,
		"retained_heap_mb": float64(live) / mb,
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = value{v[d.name], d.unit}
	}
}

func tracePass(w workload, p *pass, res *passResult) error {
	before := takeSample()
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	peak := startHeapPeak()
	w.trace(p)
	pprof.StopCPUProfile()
	inuse := peak.stop()
	res.WallS = time.Since(before.at).Seconds()
	runtime.GC()
	after := takeSample()

	v := p.layer
	v["sim.events"] = float64(p.events)
	v["sim.resumes"] = float64(p.resumes)
	v["sim.max_queue"] = float64(p.maxQueue)
	if p.events > 0 {
		v["sim.host_ns_per_event"] = float64(p.simWall.Nanoseconds()) / float64(p.events)
	}
	v["sim.procs_retained"] = float64(after.goroutines - before.goroutines)
	v["proto.read_faults"] = float64(p.counters.ReadFaults)
	v["proto.write_faults"] = float64(p.counters.WriteFaults)
	v["core.presends_sent"] = float64(p.counters.PresendsSent)
	v["core.presends_skipped"] = float64(p.counters.PresendsSkipped)
	if d := p.hits + p.faults; d > 0 {
		v["core.presend_coverage"] = float64(p.hits) / float64(d)
	}
	if p.presendsIn > 0 {
		v["core.presend_accuracy"] = float64(p.hits) / float64(p.presendsIn)
	}
	v["tempest.msgs"] = float64(p.counters.MsgsSent)
	v["tempest.bytes"] = float64(p.counters.BytesSent)
	v["tempest.bulk_msgs"] = float64(p.counters.BulkMsgs)
	v["tempest.cross_msgs"] = float64(p.counters.CrossMsgs)
	v["tempest.agg_msgs"] = float64(p.counters.AggMsgs)
	v["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	if d := after.totalCPU - before.totalCPU; d > 0 {
		v["runtime.gc_cpu_pct"] = 100 * (after.gcCPU - before.gcCPU) / d
	}

	cpuNS, err := cpuByLayer(cpu.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	if total := sum(cpuNS); total > 0 {
		fold(v, cpuNS, cpuLayers, ".cpu_pct", 100/total)
	}
	fold(v, allocByLayer(), allocLayers, ".alloc_mb", 1.0/mb)
	fold(v, inuse, inuseLayers, ".inuse_mb", 1.0/mb)

	for _, d := range perLayer {
		res.Metrics[d.name] = value{v[d.name], d.unit}
	}
	return nil
}

// fold scales per-package totals into the named layer metrics, summing
// every unlisted package into "other".
func fold(v map[string]float64, byPkg map[string]float64, layers []string, suffix string, scale float64) {
	listed := map[string]bool{}
	for _, l := range layers {
		listed[l] = true
	}
	for pkg, x := range byPkg {
		if !listed[pkg] {
			pkg = "other"
		}
		v[pkg+suffix] += x * scale
	}
}

func sum(m map[string]float64) float64 {
	var s float64
	for _, x := range m {
		s += x
	}
	return s
}

// quantile returns the q-quantile of xs by nearest rank (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
