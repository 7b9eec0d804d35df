package tempest

import (
	"presto/internal/memory"
	"presto/internal/sim"
)

// Access is one shared-memory access (load, store or RMW) in a node's
// calibration trace: its issue time with the node's fault stalls
// compressed out, the block it touched (at the calibration block size)
// and whether it needed write access. The analytical predictor
// (internal/predict) merges the per-node traces by time and replays a
// coherence automaton at coarser block granularities to derive fault
// counts without re-simulating.
type Access struct {
	// Run is the issue time minus the node's cumulative fault wait
	// before it: pure compute progression. Differences of Run within a
	// segment are the compute gaps between the node's accesses.
	Run   sim.Time
	Block memory.Block
	Write bool
}

// Segment is one run of a node's accesses under a single (phase,
// iteration) pair — the node's slice of one barrier episode. A node
// that returns to an earlier pair starts a new segment; the predictor
// tells repeats apart by counting occurrences.
type Segment struct {
	Phase, Iter int32
	At          sim.Time // issue time of the segment's first access
	Accs        []Access
}

// CommRecord captures one node's memory behavior during a calibration
// run for the analytical predictor: the access trace cut into barrier
// segments plus per-phase pre-send arrivals. Recording is observation
// only — it charges no virtual time and never perturbs the simulation —
// and all state is updated exclusively by the owning node's processors,
// which share a lane under the parallel engine, so no synchronization
// is needed (the same argument as Stats).
type CommRecord struct {
	// Segments is the node's access trace in issue order (issue times
	// are nondecreasing: each compute processor issues sequentially).
	Segments []Segment
	// Presend maps a parallel-phase ID (-1 = outside any phase) to the
	// arrival count of each pre-sent block installed at this node.
	Presend map[int]map[memory.Block]int64

	stallCum sim.Time
}

// NewCommRecord returns an empty recorder.
func NewCommRecord() *CommRecord {
	return &CommRecord{Presend: make(map[int]map[memory.Block]int64)}
}

// NoteAccess appends one access to the trace, opening a new segment
// whenever (phase, iter) changes. Called once per accessor invocation,
// before the hit check — fault retries are not re-counted.
func (r *CommRecord) NoteAccess(phase, iter int, at sim.Time, b memory.Block, write bool) {
	n := len(r.Segments)
	if n == 0 || r.Segments[n-1].Phase != int32(phase) || r.Segments[n-1].Iter != int32(iter) {
		r.Segments = append(r.Segments, Segment{Phase: int32(phase), Iter: int32(iter), At: at})
		n++
	}
	s := &r.Segments[n-1]
	s.Accs = append(s.Accs, Access{Run: at - r.stallCum, Block: b, Write: write})
}

// NoteStall accumulates one resolved fault's wait time; later accesses'
// Run subtracts it, so calibration-size stalls leave the timeline.
func (r *CommRecord) NoteStall(dt sim.Time) { r.stallCum += dt }

// NotePresend records one pre-send arrival for block b.
func (r *CommRecord) NotePresend(phase int, b memory.Block) {
	m := r.Presend[phase]
	if m == nil {
		m = make(map[memory.Block]int64)
		r.Presend[phase] = m
	}
	m[b]++
}
