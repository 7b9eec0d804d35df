package chaos

import (
	"context"
	"fmt"
	"io"

	"presto/internal/runpool"
)

// Options configures a fuzzing campaign (and, with Seeds=1, a single
// reproduction run).
type Options struct {
	// Seeds is the number of consecutive seeds to run (default 50).
	Seeds int
	// Start is the first seed (default 1).
	Start int64
	// Scale bounds derivation (default ScaleQuick).
	Scale Scale
	// Caps further bounds derivation (the -max-* repro flags).
	Caps Caps
	// Mutation injects a named protocol defect into every run
	// (rt.Mutation*). The campaign is then expected to fail — mutation
	// testing of the oracle itself.
	Mutation string
	// Aggregate runs every protocol with node-leader message
	// aggregation enabled (rt.Config.Aggregate). A timing-visible no-op
	// on seeds whose interconnect is flat; implied by the agg-drop-entry
	// mutation.
	Aggregate bool
	// JitterPct overrides the derived interconnect jitter: 0 derives it
	// from the seed (default), >0 forces that percentage, <0 forces
	// jitter off.
	JitterPct int
	// MaxEvents bounds each run's simulation events, the livelock guard
	// for mutated protocols (default 20M).
	MaxEvents int64
	// MaxFailures stops the campaign after this many failing seeds
	// (default 1).
	MaxFailures int
	// NoShrink skips minimizing failing seeds.
	NoShrink bool
	// Ctx, when non-nil, cancels the campaign between seeds (and between
	// a failure and its shrink): no further seed starts, and Fuzz returns
	// the report for the contiguous prefix of seeds that completed, with
	// Interrupted set, so callers can flush artifacts for the seeds that
	// did run instead of dying mid-write.
	Ctx context.Context
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.Seeds == 0 {
		o.Seeds = 50
	}
	if o.Start == 0 {
		o.Start = 1
	}
	if o.Scale == "" {
		o.Scale = ScaleQuick
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = 20_000_000
	}
	if o.MaxFailures == 0 {
		o.MaxFailures = 1
	}
	return o
}

// derive expands a seed under the campaign's scale, caps and jitter
// policy.
func (o Options) derive(seed int64) Spec {
	s := DeriveCapped(seed, o.Scale, o.Caps)
	switch {
	case o.JitterPct > 0:
		s.JitterPct = o.JitterPct
	case o.JitterPct < 0:
		s.JitterPct = 0
	}
	return s
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Failure is one failing seed, minimized.
type Failure struct {
	Seed int64 `json:"seed"`
	// Result is the original (uncapped) failing run.
	Result SeedResult `json:"result"`
	// Min is the smallest cap set under which the seed still fails.
	Min Caps `json:"min"`
	// MinResult is the failing run at Min.
	MinResult SeedResult `json:"min_result"`
	// Repro is the one-line command reproducing MinResult.
	Repro string `json:"repro"`
}

// Report is a campaign's outcome.
type Report struct {
	SeedsRun int       `json:"seeds_run"`
	Failures []Failure `json:"failures,omitempty"`
	// Interrupted marks a campaign cut short by Options.Ctx: SeedsRun and
	// Failures cover only the seeds that completed.
	Interrupted bool `json:"interrupted,omitempty"`
}

// Ok reports a clean campaign.
func (r Report) Ok() bool { return len(r.Failures) == 0 }

// Fuzz runs the campaign: consecutive seeds through the differential
// oracle, shrinking each failure to a minimal reproducer, stopping after
// Options.MaxFailures failing seeds.
//
// Seeds run side by side on a runpool, but everything observable is
// decided in seed order on the calling goroutine, so the Report and the
// Log bytes are those of a serial loop at any GOMAXPROCS: SeedsRun and
// Failures are in seed order, the MaxFailures stop is taken on the
// in-order prefix (seeds run ahead past it are dropped unlogged), and
// shrinking happens in seed order. A cancelled Ctx stops dispatching new
// seeds; the report then covers the contiguous prefix that completed.
func Fuzz(o Options) Report {
	o = o.withDefaults()
	var rep Report
	runpool.Ordered(o.Ctx, o.Seeds, func(i int) SeedResult {
		return RunSeed(o.Start+int64(i), o)
	}, func(i int, r SeedResult) bool {
		seed := o.Start + int64(i)
		rep.SeedsRun++
		if !r.Failed() {
			o.logf("seed %d ok (%s)", seed, r.Spec)
			return true
		}
		o.logf("seed %d FAILED:\n%s", seed, r.Render())
		f := Failure{Seed: seed, Result: r}
		if o.NoShrink || (o.Ctx != nil && o.Ctx.Err() != nil) {
			f.Min, f.MinResult = r.Spec.Size(), r
		} else {
			o.logf("shrinking seed %d ...", seed)
			f.Min, f.MinResult = Shrink(seed, o)
		}
		f.Repro = ReproCommand(seed, o, f.Min)
		o.logf("minimal: nodes=%d phases=%d iters=%d blocks=%d\nrepro: %s",
			f.Min.Nodes, f.Min.Phases, f.Min.Iters, f.Min.Blocks, f.Repro)
		rep.Failures = append(rep.Failures, f)
		return len(rep.Failures) < o.MaxFailures
	})
	// Short of the band without reaching MaxFailures: only a cancelled
	// Ctx stops dispatching early.
	rep.Interrupted = rep.SeedsRun < o.Seeds && len(rep.Failures) < o.MaxFailures
	return rep
}
