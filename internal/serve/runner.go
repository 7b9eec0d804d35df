package serve

import (
	"context"
	"fmt"

	"presto/internal/blockstate"
	"presto/internal/chaos"
	"presto/internal/harness"
	"presto/internal/network"
	"presto/internal/rt"
)

// Run is the production runner: it executes one normalized spec on the
// in-process simulator. A simulation cannot be preempted once started,
// so ctx is honored only at the boundary (a job whose context is already
// canceled returns a structured error without simulating); the Service's
// timeout layer handles overruns.
func Run(ctx context.Context, spec Spec) *Result {
	if err := ctx.Err(); err != nil {
		return &Result{Err: fmt.Sprintf("serve: job canceled before start: %v", err)}
	}
	switch spec.Kind {
	case KindChaos:
		if spec.chaosDiff() {
			return runChaosDiff(spec)
		}
		return runChaosSingle(spec)
	case KindExperiment:
		return runExperiment(spec)
	}
	return &Result{Err: fmt.Sprintf("serve: unknown spec kind %q", spec.Kind)}
}

// refRun is the differential matrix run whose fingerprint stamps the
// result's ElapsedNS/MemHash: the unoptimized protocol.
const refRun = string(rt.ProtoStache)

// runChaosDiff runs the full differential oracle on one seed — the
// protofuzz server path. Oracle violations are payload (the client
// decides what a failing seed means), not job errors.
func runChaosDiff(spec Spec) *Result {
	o := chaos.Options{
		Seeds:     1,
		Start:     spec.Seed,
		Scale:     chaos.Scale(spec.Scale),
		Caps:      spec.Caps(),
		JitterPct: spec.JitterPct,
		MaxEvents: spec.MaxEvents,
		NoShrink:  true,
	}
	r := chaos.RunSeed(spec.Seed, o)
	res := &Result{Chaos: &ChaosResult{Diff: &r}}
	if fp, ok := r.Runs[refRun]; ok && fp.Err == "" {
		res.ElapsedNS = fp.ElapsedNS
		res.MemHash = fmt.Sprintf("%016x", fp.MemHash)
	}
	return res
}

// runChaosSingle executes one configured {protocol, sched, storage}
// combination of a derived chaos workload, with the spec's
// block-size and interconnect overrides applied to the derivation.
func runChaosSingle(spec Spec) *Result {
	cs := chaos.DeriveCapped(spec.Seed, chaos.Scale(spec.Scale), spec.Caps())
	// Jitter policy mirrors chaos.Options.derive: >0 forces the
	// percentage, <0 forces it off, 0 keeps the derived value.
	switch {
	case spec.JitterPct > 0:
		cs.JitterPct = spec.JitterPct
	case spec.JitterPct < 0:
		cs.JitterPct = 0
	}
	if spec.BlockSize != 0 {
		cs.BlockSize = spec.BlockSize
	}
	if spec.Net != "" {
		cs.Net = spec.Net
	}
	fp := chaos.ExecuteRun(cs, chaos.RunConfig{
		Protocol:  rt.ProtocolKind(spec.Protocol),
		Sched:     rt.SchedKind(spec.Sched),
		Storage:   blockstate.Kind(spec.Storage),
		MaxEvents: spec.MaxEvents,
	})
	res := &Result{Chaos: &ChaosResult{Fingerprint: &fp}}
	if fp.Err == "" {
		res.ElapsedNS = fp.ElapsedNS
		res.MemHash = fmt.Sprintf("%016x", fp.MemHash)
	}
	return res
}

// runExperiment runs a registered harness experiment and packages its
// CSV rows — byte-identical to an in-process harness.RunCSV call, the
// service's end-to-end determinism contract.
func runExperiment(spec Spec) *Result {
	e, ok := harness.ByID(spec.Experiment)
	if !ok {
		return &Result{Err: fmt.Sprintf("serve: unknown experiment %q", spec.Experiment)}
	}
	o := harness.Options{
		Scale:   harness.ParseScale(spec.Scale),
		Sched:   rt.SchedKind(spec.Sched),
		Profile: spec.Profile,
		Predict: spec.Predict,
	}
	if spec.Net != "" {
		p, err := network.Preset(spec.Net)
		if err != nil {
			return &Result{Err: fmt.Sprintf("serve: %v", err)}
		}
		o.Net = p
	}
	csv, hres, err := harness.RunCSV(e, o)
	if err != nil {
		return &Result{Err: fmt.Sprintf("serve: experiment %s: %v", spec.Experiment, err)}
	}
	rows, err := hres.JSON()
	if err != nil {
		return &Result{Err: fmt.Sprintf("serve: experiment %s: encoding rows: %v", spec.Experiment, err)}
	}
	res := &Result{Experiment: &ExperimentResult{
		CSV:       string(csv),
		CSVSHA256: sha256Hex(csv),
		Notes:     hres.Notes,
		Rows:      rows,
	}}
	for _, row := range hres.Rows {
		res.ElapsedNS += int64(row.Total())
	}
	return res
}
