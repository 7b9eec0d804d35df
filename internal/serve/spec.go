// Package serve turns the deterministic simulator into a batch
// experiment service: canonical job specs with content hashes, a
// single-flight LRU result cache, a deterministic worker pool, and an
// HTTP/NDJSON front end (cmd/dsmserve).
//
// The whole design leans on one property: the simulator is a pure
// function of its spec. Same spec, same bytes — so every result is
// perfectly cacheable, identical in-flight requests can be coalesced
// into one simulation, and a replayed batch must produce a byte-identical
// response body.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"presto/internal/blockstate"
	"presto/internal/chaos"
	"presto/internal/harness"
	"presto/internal/network"
	"presto/internal/rt"
)

// Job kinds.
const (
	// KindChaos runs a seed-derived chaos workload. With Protocol unset
	// the full differential oracle runs (every protocol, cross-checked —
	// the protofuzz server path); with Protocol set, exactly one
	// configured run executes and the result is its fingerprint.
	KindChaos = "chaos"
	// KindExperiment runs a registered harness experiment (figure5,
	// sweep, ...) and returns its CSV rows and notes.
	KindExperiment = "experiment"
)

// Spec is the canonical description of one simulation job. Its
// normalized form (Normalize) is the unit of identity: the canonical
// JSON encoding of a normalized spec, hashed, keys the result cache and
// dedupes concurrent submissions.
//
// Field applicability by kind:
//
//   - chaos: Seed, Scale (quick|long), JitterPct, MaxEvents, Max*, and —
//     only when Protocol is set — Sched/Storage plus the BlockSize and
//     Net overrides applied to the derived workload.
//   - experiment: Experiment, Scale (quick|paper), Sched, Net, Profile,
//     Predict.
type Spec struct {
	Kind string `json:"kind"`

	// Chaos job shape.
	Seed      int64 `json:"seed,omitempty"`
	JitterPct int   `json:"jitter_pct,omitempty"` // 0 = derive from seed, <0 = off
	MaxEvents int64 `json:"max_events,omitempty"`
	MaxNodes  int   `json:"max_nodes,omitempty"` // derivation caps (chaos.Caps)
	MaxPhases int   `json:"max_phases,omitempty"`
	MaxIters  int   `json:"max_iters,omitempty"`
	MaxBlocks int   `json:"max_blocks,omitempty"`
	BlockSize int   `json:"block_size,omitempty"` // single-combo override of the derived block size

	// Experiment job shape.
	Experiment string `json:"experiment,omitempty"`
	Profile    bool   `json:"profile,omitempty"`
	// Predict routes the figure 5-7 and sweep experiments through the
	// analytical fast path (internal/predict) instead of per-row
	// simulation. The field is part of the canonical encoding, so a
	// predicted result and a simulated result of the same experiment hash
	// differently by construction — the cache can never serve one for the
	// other (provenance disjointness).
	Predict bool `json:"predict,omitempty"`

	// Execution knobs shared by both kinds.
	Scale    string `json:"scale,omitempty"`
	Protocol string `json:"protocol,omitempty"`
	Sched    string `json:"sched,omitempty"`
	Storage  string `json:"storage,omitempty"`
	Net      string `json:"net,omitempty"`
}

// chaosDiff reports whether the spec runs the full differential matrix
// (no explicit protocol) rather than one configured combination.
func (s Spec) chaosDiff() bool { return s.Kind == KindChaos && s.Protocol == "" }

// Caps returns the spec's derivation caps.
func (s Spec) Caps() chaos.Caps {
	return chaos.Caps{Nodes: s.MaxNodes, Phases: s.MaxPhases, Iters: s.MaxIters, Blocks: s.MaxBlocks}
}

// Normalize validates the spec and fills defaults, returning the
// canonical form whose encoding is hashed. Two specs that normalize
// equal are the same job by construction; normalizing is idempotent.
func (s Spec) Normalize() (Spec, error) {
	switch s.Kind {
	case KindChaos:
		return s.normalizeChaos()
	case KindExperiment:
		return s.normalizeExperiment()
	case "":
		return s, fmt.Errorf("serve: spec missing kind (want %q or %q)", KindChaos, KindExperiment)
	}
	return s, fmt.Errorf("serve: unknown spec kind %q (want %q or %q)", s.Kind, KindChaos, KindExperiment)
}

func (s Spec) normalizeChaos() (Spec, error) {
	if s.Seed < 0 {
		return s, fmt.Errorf("serve: chaos spec: negative seed %d", s.Seed)
	}
	if s.Scale == "" {
		s.Scale = string(chaos.ScaleQuick)
	}
	if _, err := chaos.ParseScale(s.Scale); err != nil {
		return s, fmt.Errorf("serve: chaos spec: %v", err)
	}
	if s.MaxEvents <= 0 {
		s.MaxEvents = 20_000_000
	}
	if s.MaxNodes < 0 || s.MaxPhases < 0 || s.MaxIters < 0 || s.MaxBlocks < 0 {
		return s, fmt.Errorf("serve: chaos spec: negative derivation cap")
	}
	if s.Experiment != "" || s.Profile || s.Predict {
		return s, fmt.Errorf("serve: chaos spec: experiment fields set")
	}
	if s.chaosDiff() {
		// The differential matrix fixes its own runs; explicit execution
		// knobs would silently not apply — reject them.
		if s.Sched != "" || s.Storage != "" || s.BlockSize != 0 || s.Net != "" {
			return s, fmt.Errorf("serve: chaos differential spec (no protocol) cannot set sched/storage/block_size/net")
		}
		return s, nil
	}
	var err error
	if s.Protocol, err = parseKind(rt.ParseProtocol(s.Protocol)); err != nil {
		return s, err
	}
	if s.Sched, err = parseKind(rt.ParseSched(s.Sched)); err != nil {
		return s, err
	}
	if s.Storage, err = parseKind(blockstate.Parse(s.Storage)); err != nil {
		return s, err
	}
	if s.BlockSize != 0 {
		switch s.BlockSize {
		case 32, 64, 128, 256, 512, 1024:
		default:
			return s, fmt.Errorf("serve: chaos spec: block_size %d not a supported power of two (32..1024)", s.BlockSize)
		}
	}
	if err := validNet(s.Net); err != nil {
		return s, err
	}
	return s, nil
}

func (s Spec) normalizeExperiment() (Spec, error) {
	if s.Experiment == "" {
		return s, fmt.Errorf("serve: experiment spec missing experiment id")
	}
	if _, ok := harness.ByID(s.Experiment); !ok {
		ids := ""
		for _, e := range harness.All() {
			if ids != "" {
				ids += ", "
			}
			ids += e.ID
		}
		return s, fmt.Errorf("serve: unknown experiment %q (registered: %s)", s.Experiment, ids)
	}
	if s.Seed != 0 || s.JitterPct != 0 || s.MaxEvents != 0 ||
		s.MaxNodes != 0 || s.MaxPhases != 0 || s.MaxIters != 0 || s.MaxBlocks != 0 ||
		s.BlockSize != 0 || s.Protocol != "" || s.Storage != "" {
		return s, fmt.Errorf("serve: experiment spec: chaos fields set (experiments pick protocols and block sizes per row)")
	}
	switch s.Scale {
	case "":
		s.Scale = "quick"
	case "quick", "paper":
	default:
		return s, fmt.Errorf("serve: experiment spec: unknown scale %q (want quick or paper)", s.Scale)
	}
	if s.Predict && !harness.PredictCapable(s.Experiment) {
		return s, fmt.Errorf("serve: experiment spec: predict is only supported for the figure and sweep experiments (not %q)", s.Experiment)
	}
	var err error
	if s.Sched, err = parseKind(rt.ParseSched(s.Sched)); err != nil {
		return s, err
	}
	if err := validNet(s.Net); err != nil {
		return s, err
	}
	return s, nil
}

// parseKind adapts the rt/blockstate Parse helpers to normalized string
// fields: the parsed (defaulted) kind becomes the canonical value.
func parseKind[K ~string](k K, err error) (string, error) {
	if err != nil {
		return "", fmt.Errorf("serve: %v", err)
	}
	return string(k), nil
}

// validNet accepts an empty override or a valid interconnect preset.
func validNet(name string) error {
	if name == "" {
		return nil
	}
	p, err := network.Preset(name)
	if err != nil {
		return fmt.Errorf("serve: %v", err)
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("serve: %v", err)
	}
	return nil
}

// Canonical returns the spec's canonical JSON encoding: the normalized
// struct marshaled with encoding/json, whose field order is fixed by
// declaration and whose omitempty zero-suppression is part of the
// canonical form. The spec must already be normalized.
func (s Spec) Canonical() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// A Spec contains only marshalable scalar fields.
		panic(fmt.Sprintf("serve: canonical encoding failed: %v", err))
	}
	return b
}

// Hash is the spec's content address: the hex SHA-256 of the canonical
// encoding. It keys the result cache, dedupes in-flight submissions and
// is carried on every result (and the GET /v1/spec/<hash> lookup path).
func (s Spec) Hash() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])
}
