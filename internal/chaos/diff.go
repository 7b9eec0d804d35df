package chaos

import (
	"fmt"
	"sort"

	"presto/internal/rt"
)

// The differential matrix: every seed runs under each coherent protocol.
// The write-update baseline is excluded — it intentionally violates
// value coherence between pushes, so the oracle's invariants do not
// apply to it.
var protocols = []rt.ProtocolKind{rt.ProtoStache, rt.ProtoPredictive}

// aggMutation reports whether a named defect lives in the node-leader
// aggregation layer: such mutations imply Options.Aggregate and are
// injected only into seeds whose interconnect is clustered (a flat
// fabric has nothing to coalesce, and rt rejects the combination).
func aggMutation(name string) bool {
	return name == rt.MutationAggDropEntry
}

// SeedResult is the differential oracle's verdict on one seed.
type SeedResult struct {
	Seed int64 `json:"seed"`
	Spec Spec  `json:"spec"`
	// Runs maps each protocol's name to that run's fingerprint.
	Runs map[string]Fingerprint `json:"runs"`
	// Failures lists every oracle violation, empty for a clean seed.
	Failures []string `json:"failures,omitempty"`
}

// Failed reports whether any oracle check tripped.
func (r SeedResult) Failed() bool { return len(r.Failures) > 0 }

// RunSeed derives the seed's workload and runs the differential matrix,
// checking:
//
//  1. every run completes without error (no deadlock, no event-budget
//     overrun) and with protocol invariants and pre-send accounting
//     intact at quiescence (check.Machine, check.Accounting);
//  2. across protocols, final memory is identical — the workload's
//     writes never depend on racy read values, so coherent protocols
//     must agree on every block's final contents.
func RunSeed(seed int64, o Options) SeedResult {
	o = o.withDefaults()
	res := SeedResult{
		Seed: seed,
		Spec: o.derive(seed),
		Runs: make(map[string]Fingerprint),
	}
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}
	// Aggregation-layer mutations imply aggregated runs, and only bind on
	// clustered interconnects — a flat-fabric seed runs honestly (and
	// passes), so the campaign's catch comes from its clustered seeds.
	mut := o.Mutation
	agg := o.Aggregate || aggMutation(mut)
	if aggMutation(mut) && !res.Spec.clustered() {
		mut = ""
	}
	for _, p := range protocols {
		fp := execute(res.Spec, p, mut, o.MaxEvents, "", "", agg)
		res.Runs[string(p)] = fp
		if fp.Err != "" {
			fail("%s: run error: %s", p, fp.Err)
		}
		for _, v := range fp.Violations {
			fail("%s: %s", p, v)
		}
	}
	a := res.Runs[string(protocols[0])]
	b := res.Runs[string(protocols[1])]
	if a.Err == "" && b.Err == "" && a.MemHash != b.MemHash {
		fail("final memory diverges across protocols: %s=%016x %s=%016x",
			protocols[0], a.MemHash, protocols[1], b.MemHash)
	}
	return res
}

// Render formats a SeedResult for humans: spec line, per-protocol
// fingerprints in stable order, then failures.
func (r SeedResult) Render() string {
	out := r.Spec.String() + "\n"
	keys := make([]string, 0, len(r.Runs))
	for k := range r.Runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out += fmt.Sprintf("  %-20s %s\n", k, r.Runs[k])
	}
	if !r.Failed() {
		return out + "  ok\n"
	}
	for _, f := range r.Failures {
		out += "  FAIL: " + f + "\n"
	}
	return out
}
