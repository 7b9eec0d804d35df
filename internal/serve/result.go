package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"presto/internal/chaos"
)

// Result is one job's outcome, the unit streamed as one NDJSON line.
// Every field is deterministic for a fixed spec — no wall-clock times,
// no cache provenance — so a replayed batch's response body is
// byte-identical to the first run's. Cache-hit accounting is observable
// only through /metricsz.
type Result struct {
	// SpecHash is the content address of the normalized spec.
	SpecHash string `json:"spec_hash"`
	// Spec is the normalized spec the job ran.
	Spec Spec `json:"spec"`
	// Err reports a job-level failure (run error, panic, timeout). Oracle
	// violations are payload, not Err: a chaos seed whose differential
	// check fails is a successful job with a failing verdict.
	Err string `json:"err,omitempty"`
	// ElapsedNS is simulated time: the chaos reference run's elapsed time
	// or the summed row totals of an experiment.
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`
	// MemHash is rt.Machine.HashMemory of the chaos reference run
	// (stache), in %016x — the fingerprint clients verify.
	MemHash string `json:"mem_hash,omitempty"`
	// Chaos carries a chaos job's payload.
	Chaos *ChaosResult `json:"chaos,omitempty"`
	// Experiment carries an experiment job's payload.
	Experiment *ExperimentResult `json:"experiment,omitempty"`
}

// ChaosResult is a chaos job's payload: the full differential verdict or
// a single configured run's fingerprint.
type ChaosResult struct {
	Diff        *chaos.SeedResult  `json:"diff,omitempty"`
	Fingerprint *chaos.Fingerprint `json:"fingerprint,omitempty"`
}

// ExperimentResult is an experiment job's payload.
type ExperimentResult struct {
	// CSV holds the experiment's rows exactly as the in-process harness
	// renders them (Result.CSV) — the e2e determinism contract.
	CSV string `json:"csv"`
	// CSVSHA256 is the hex SHA-256 of CSV, the cheap client-side identity
	// check mirroring the chaos MemHash.
	CSVSHA256 string `json:"csv_sha256"`
	// Notes are the experiment's derived findings.
	Notes []string `json:"notes,omitempty"`
	// Rows is the harness's machine-readable record (per-phase metrics
	// included; attribution profiles when the spec asked for Profile).
	Rows json.RawMessage `json:"rows,omitempty"`
}

// Failed reports a job-level error or a failing chaos verdict.
func (r *Result) Failed() bool {
	if r.Err != "" {
		return true
	}
	return r.Chaos != nil && r.Chaos.Diff != nil && r.Chaos.Diff.Failed()
}

// encode renders the result as one NDJSON line (trailing newline
// included). The encoded bytes are what the cache stores and what every
// response writes, so replay identity is byte-exact by construction.
func (r *Result) encode() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		// Fall back to a minimal error line rather than dropping the job.
		b, _ = json.Marshal(&Result{SpecHash: r.SpecHash, Spec: r.Spec,
			Err: fmt.Sprintf("serve: encoding result: %v", err)})
	}
	return append(b, '\n')
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// errResult builds a job-level failure result.
func errResult(spec Spec, hash, msg string) *Result {
	return &Result{SpecHash: hash, Spec: spec, Err: msg}
}

// BatchRequest is the POST /v1/batch body: an explicit spec list, a
// chaos seed range, or both (range first, then specs).
type BatchRequest struct {
	Specs []Spec `json:"specs,omitempty"`
	// SeedRange expands to Count consecutive chaos differential specs
	// starting at Start.
	SeedRange *SeedRange `json:"seed_range,omitempty"`
}

// SeedRange describes a band of consecutive chaos seeds sharing one
// derivation envelope — the protofuzz batch shape.
type SeedRange struct {
	Start     int64  `json:"start"`
	Count     int    `json:"count"`
	Scale     string `json:"scale,omitempty"`
	JitterPct int    `json:"jitter_pct,omitempty"`
	MaxEvents int64  `json:"max_events,omitempty"`
	MaxNodes  int    `json:"max_nodes,omitempty"`
	MaxPhases int    `json:"max_phases,omitempty"`
	MaxIters  int    `json:"max_iters,omitempty"`
	MaxBlocks int    `json:"max_blocks,omitempty"`
}

// Expand normalizes the request into the ordered spec list the batch
// runs. maxBatch bounds the total job count (0 = unbounded).
func (br *BatchRequest) Expand(maxBatch int) ([]Spec, error) {
	var out []Spec
	if sr := br.SeedRange; sr != nil {
		if sr.Count <= 0 {
			return nil, fmt.Errorf("serve: seed_range count must be positive (got %d)", sr.Count)
		}
		if maxBatch > 0 && sr.Count > maxBatch {
			return nil, fmt.Errorf("serve: seed_range count %d exceeds the batch limit %d", sr.Count, maxBatch)
		}
		for i := 0; i < sr.Count; i++ {
			s := Spec{
				Kind:      KindChaos,
				Seed:      sr.Start + int64(i),
				Scale:     sr.Scale,
				JitterPct: sr.JitterPct,
				MaxEvents: sr.MaxEvents,
				MaxNodes:  sr.MaxNodes,
				MaxPhases: sr.MaxPhases,
				MaxIters:  sr.MaxIters,
				MaxBlocks: sr.MaxBlocks,
			}
			n, err := s.Normalize()
			if err != nil {
				return nil, fmt.Errorf("serve: seed_range seed %d: %v", s.Seed, err)
			}
			out = append(out, n)
		}
	}
	for i, s := range br.Specs {
		n, err := s.Normalize()
		if err != nil {
			return nil, fmt.Errorf("serve: spec[%d]: %v", i, err)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("serve: empty batch (want specs and/or seed_range)")
	}
	if maxBatch > 0 && len(out) > maxBatch {
		return nil, fmt.Errorf("serve: batch of %d jobs exceeds the limit %d", len(out), maxBatch)
	}
	return out, nil
}
