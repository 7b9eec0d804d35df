// Package chaos is the repository's deterministic stress/fuzz subsystem.
// From a single int64 seed it derives a random machine shape and a
// multi-iteration phase program, executes it on the real runtime under
// every coherent protocol, and cross-checks the results with a
// differential oracle (same final memory across protocols, protocol
// invariants and exact pre-send accounting at quiescence). Failing seeds shrink to a
// minimal reproducer expressible as a one-line protofuzz command.
//
// Everything is a pure function of the seed: derivation, the workload's
// memory accesses, and the interconnect perturbation (network.Params
// jitter keyed on simulated state only). A seed therefore reproduces
// exactly on any host, whichever seeds run beside it.
package chaos

import (
	"fmt"
	"strings"
)

// rng is a splitmix64 generator — small, fast, and stable across Go
// versions (unlike math/rand, whose stream is not guaranteed).
type rng struct{ s uint64 }

func newRNG(seed int64) *rng { return &rng{s: uint64(seed)} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		panic("chaos: intn of non-positive bound")
	}
	return int(r.next() % uint64(n))
}

// between returns a value in [lo, hi] inclusive.
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// chance is true pct% of the time.
func (r *rng) chance(pct int) bool { return r.intn(100) < pct }

// Scale selects the derivation envelope: how large a machine and program
// a seed may derive.
type Scale string

const (
	// ScaleQuick bounds seeds to small machines and short programs
	// (CI smoke budget: hundreds of seeds in seconds).
	ScaleQuick Scale = "quick"
	// ScaleLong allows larger machines and longer programs (nightly
	// soak runs).
	ScaleLong Scale = "long"
)

// ParseScale validates a -scale flag value.
func ParseScale(s string) (Scale, error) {
	switch Scale(s) {
	case ScaleQuick, ScaleLong:
		return Scale(s), nil
	}
	return "", fmt.Errorf("chaos: unknown scale %q (want %q or %q)", s, ScaleQuick, ScaleLong)
}

// Caps bounds seed derivation, the shrinker's lever: the same seed run
// under tighter caps derives the same workload shape, clamped. A zero
// field means unbounded.
type Caps struct {
	Nodes  int `json:"nodes,omitempty"`
	Phases int `json:"phases,omitempty"`
	Iters  int `json:"iters,omitempty"`
	Blocks int `json:"blocks,omitempty"` // caps the shared element pool
}

// PhaseKind names one synthetic phase body.
type PhaseKind int

const (
	// PhaseProduce writes deterministic values into the node's own
	// partition (owner-computes; the classic producer half).
	PhaseProduce PhaseKind = iota
	// PhaseConsume reads a rotated neighbor's partition (the consumer
	// half; the pre-send walk should learn this pattern).
	PhaseConsume
	// PhaseConflict writes interleaved elements of an unpadded array —
	// distinct elements, shared cache blocks (false sharing storm).
	PhaseConflict
	// PhaseMigrate has a single rotating writer update a hot set every
	// iteration while the other nodes read it (ownership migration).
	PhaseMigrate
	// PhaseAccumulate has every node atomically add integer-valued
	// deltas into a small shared accumulator array (RMW storm; exact
	// order-independent sums keep final memory protocol-independent).
	PhaseAccumulate
	// PhaseArena allocates from the shared arena, publishes the address
	// through a pointer slot, and has neighbors chase the pointer.
	PhaseArena
	// PhaseBroadcast splits into two compiler phases: owners update
	// their partition, then every node reads every partition. The read
	// phase's schedule lists all nodes as readers of each home's blocks
	// — several consumers per remote node group, the traffic shape
	// node-leader aggregation coalesces into multi-part leader messages.
	PhaseBroadcast

	numPhaseKinds
)

var phaseKindNames = [numPhaseKinds]string{
	"produce", "consume", "conflict", "migrate", "accumulate", "arena", "broadcast",
}

func (k PhaseKind) String() string { return phaseKindNames[k] }

// contended reports whether the phase kind forces inter-node protocol
// traffic on shared blocks (the patterns that exercise invalidations,
// recalls and the overtaking races).
func (k PhaseKind) contended() bool {
	return k == PhaseConflict || k == PhaseMigrate || k == PhaseAccumulate ||
		k == PhaseBroadcast
}

// PhaseSpec describes one compiler-identified phase of the synthetic
// program; the program executes all phases in order every iteration.
type PhaseSpec struct {
	Kind PhaseKind `json:"kind"`
	// Stride is the ring distance used by consume targets and the
	// migrate writer rotation, in [1, Nodes-1].
	Stride int `json:"stride"`
	// Count is the number of elements touched per node per execution.
	Count int `json:"count"`
}

// Spec is a fully derived synthetic workload: a machine shape plus a
// phase program. It is a pure function of (seed, scale, caps).
type Spec struct {
	Seed      int64       `json:"seed"`
	Nodes     int         `json:"nodes"`
	Net       string      `json:"net"` // interconnect preset (network.Preset)
	BlockSize int         `json:"block_size"`
	Iters     int         `json:"iters"`
	JitterPct int         `json:"jitter_pct"`
	Elems     int         `json:"elems"` // shared element pool (multiple of Nodes)
	Pad       bool        `json:"pad"`   // pad the main array to whole blocks
	UseArena  bool        `json:"use_arena"`
	FlushIter int         `json:"flush_iter"` // iteration whose end flushes schedules; -1 = never
	FlushID   int         `json:"flush_id"`   // phase id to flush, or -1 for all
	RotEvery  int         `json:"rot_every"`  // rotate strides every N iterations; 0 = never
	Phases    []PhaseSpec `json:"phases"`
}

func (s Spec) String() string {
	return fmt.Sprintf("seed=%d nodes=%d net=%s bs=%d iters=%d elems=%d jitter=%d%% phases=%d",
		s.Seed, s.Nodes, s.Net, s.BlockSize, s.Iters, s.Elems, s.JitterPct, len(s.Phases))
}

// Derive expands a seed into a workload at the given scale.
func Derive(seed int64, scale Scale) Spec { return DeriveCapped(seed, scale, Caps{}) }

// DeriveCapped derives the same workload shape as Derive and then clamps
// it to the caps. Derivation consumes the generator identically
// regardless of caps, so a capped run preserves the uncapped run's
// structural decisions — the property the shrinker relies on.
func DeriveCapped(seed int64, scale Scale, c Caps) Spec {
	r := newRNG(seed)
	maxNodes, maxPhases, maxIters := 8, 4, 4
	if scale == ScaleLong {
		maxNodes, maxPhases, maxIters = 16, 6, 8
	}
	s := Spec{Seed: seed}
	s.Nodes = r.between(2, maxNodes)
	// Hardware-assisted DSM weighted up: its sub-microsecond handler
	// occupancies are the regime where protocol messages overtake the
	// payload-carrying grants they chase (the deferral races). The
	// "cluster", "mesh" and "fattree" entries are sentinels clamp()
	// materializes into concrete shapes once the final node count is
	// known — the hierarchical topologies exercise pair-dependent
	// transit, node-leader aggregation, and the distance-dependent mesh
	// transit.
	s.Net = []string{"cm5", "now", "hwdsm", "hwdsm",
		"cluster", "cluster", "mesh", "fattree"}[r.intn(8)]
	s.BlockSize = []int{32, 64, 128, 256}[r.intn(4)]
	s.Iters = r.between(2, maxIters)
	s.JitterPct = []int{0, 5, 10, 25}[r.intn(4)]
	s.Elems = r.between(2, 8) * s.Nodes
	s.Pad = r.chance(50)
	s.UseArena = r.chance(40)
	s.FlushIter, s.FlushID = -1, -1
	nph := r.between(1, maxPhases)
	if r.chance(30) {
		s.FlushIter = r.intn(s.Iters)
		if r.chance(50) {
			s.FlushID = r.intn(nph)
		}
	}
	if r.chance(40) {
		s.RotEvery = r.between(1, 2)
	}
	for i := 0; i < nph; i++ {
		k := PhaseKind(r.intn(int(numPhaseKinds)))
		if k == PhaseArena && !s.UseArena {
			k = PhaseConsume
		}
		s.Phases = append(s.Phases, PhaseSpec{
			Kind:   k,
			Stride: r.between(1, max(1, s.Nodes-1)),
			Count:  r.between(1, 6),
		})
	}
	// Guarantee at least one contended phase in the shrink-surviving
	// prefix: without invalidations/recalls a seed exercises nothing
	// interesting, and the shrinker truncates phases from the tail.
	contended := false
	for _, p := range s.Phases {
		contended = contended || p.Kind.contended()
	}
	if !contended {
		s.Phases[0].Kind = PhaseConflict
	}
	return s.clamp(c)
}

// clamp applies caps and restores the Spec's internal invariants
// (partitionable element pool, in-range strides and flush points).
func (s Spec) clamp(c Caps) Spec {
	if c.Nodes > 1 && s.Nodes > c.Nodes {
		s.Nodes = c.Nodes
	}
	if c.Phases > 0 && len(s.Phases) > c.Phases {
		s.Phases = s.Phases[:c.Phases]
	}
	if c.Iters > 0 && s.Iters > c.Iters {
		s.Iters = c.Iters
	}
	if c.Blocks > 0 && s.Elems > c.Blocks {
		s.Elems = c.Blocks
	}
	// Keep the pool an exact multiple of the node count so every node
	// owns a non-empty, equal partition.
	if s.Elems < s.Nodes {
		s.Elems = s.Nodes
	}
	s.Elems -= s.Elems % s.Nodes
	for i := range s.Phases {
		if s.Nodes > 1 {
			s.Phases[i].Stride = 1 + (s.Phases[i].Stride-1)%(s.Nodes-1)
		} else {
			s.Phases[i].Stride = 0
		}
	}
	if s.FlushIter >= s.Iters {
		s.FlushIter = s.Iters - 1
	}
	if s.FlushID >= len(s.Phases) {
		s.FlushID = -1
	}
	// Materialize topology sentinels against the final node count.
	// Matching the materialized prefixes too keeps re-clamping an
	// already-materialized spec (the shrinker tightening Nodes) coherent:
	// cluster shapes become groups of two whenever the nodes tile (the
	// flat hwdsm preset otherwise); a fat tree pins 4^levels nodes, so it
	// only survives at exactly 16 and degrades to a mesh elsewhere; a
	// mesh factors the node count into the squarest w x h grid, which
	// exists for every count (1 x n in the worst case).
	if s.Net == "cluster" || strings.HasPrefix(s.Net, "cluster:") {
		if s.Nodes >= 4 && s.Nodes%2 == 0 {
			s.Net = fmt.Sprintf("cluster:%dx2", s.Nodes/2)
		} else {
			s.Net = "hwdsm"
		}
	}
	if s.Net == "fattree" || strings.HasPrefix(s.Net, "fattree:") {
		if s.Nodes == 16 {
			s.Net = "fattree:2"
		} else {
			s.Net = "mesh"
		}
	}
	if s.Net == "mesh" || strings.HasPrefix(s.Net, "mesh:") {
		s.Net = meshShape(s.Nodes)
	}
	return s
}

// meshShape factors n into the squarest mesh:<w>x<h> preset with
// w*h == n (w <= h; w may be 1).
func meshShape(n int) string {
	w := 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			w = d
		}
	}
	return fmt.Sprintf("mesh:%dx%d", w, n/w)
}

// Size reports the spec's shrinkable dimensions as caps.
func (s Spec) Size() Caps {
	return Caps{Nodes: s.Nodes, Phases: len(s.Phases), Iters: s.Iters, Blocks: s.Elems}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
