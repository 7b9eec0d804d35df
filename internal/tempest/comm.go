package tempest

import (
	"math"

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
//
// Consecutive identical accesses — same Run, Block and Write — fold into
// one entry: More counts the extra copies, so the zero value is a single
// access. A read and a write to the same block never fold (the
// predictive replay's subscriber bit tells them apart).
type Access struct {
	// Run is the issue time minus the node's cumulative fault wait
	// before it: pure compute progression. Differences of Run within a
	// segment are the compute gaps between the node's accesses.
	Run   sim.Time
	Block memory.Block
	Write bool
	More  uint32 // identical accesses folded into this entry after the first
}

// Segment is one run of a node's accesses under a single (phase,
// iteration) pair — the node's slice of one barrier episode. A node
// that returns to an earlier pair starts a new segment; the predictor
// tells repeats apart by counting occurrences. Accs is carved from the
// recorder's chunk storage and has no spare capacity.
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
// which the kernel runs one at a time, so no synchronization is needed
// (the same argument as Stats).
type CommRecord struct {
	// Segments is the node's access trace in issue order (issue times
	// are nondecreasing: each compute processor issues sequentially).
	Segments []Segment
	// Presend maps a parallel-phase ID (-1 = outside any phase) to the
	// arrival count of each pre-sent block installed at this node.
	Presend map[int]map[memory.Block]int64

	stallCum sim.Time
	// chunk holds the accesses of the latest segments; the open segment
	// is chunk[open:]. When chunk fills, only the open segment moves to a
	// fresh chunk; closed segments keep pointing into the old one and are
	// never copied.
	chunk []Access
	open  int
}

// commChunk is the smallest chunk the recorder allocates, in accesses.
const commChunk = 4096

// NewCommRecord returns an empty recorder.
func NewCommRecord() *CommRecord {
	return &CommRecord{Presend: make(map[int]map[memory.Block]int64)}
}

// NoteAccess appends one access to the trace, opening a new segment
// whenever (phase, iter) changes, or folds it into the segment's last
// entry when it repeats that entry exactly. Called once per accessor
// invocation, before the hit check — fault retries are not re-counted.
func (r *CommRecord) NoteAccess(phase, iter int, at sim.Time, b memory.Block, write bool) {
	run := at - r.stallCum
	n := len(r.Segments)
	if n == 0 || r.Segments[n-1].Phase != int32(phase) || r.Segments[n-1].Iter != int32(iter) {
		r.Segments = append(r.Segments, Segment{Phase: int32(phase), Iter: int32(iter), At: at})
		r.open = len(r.chunk)
		n++
	} else if last := &r.chunk[len(r.chunk)-1]; last.Run == run && last.Block == b && last.Write == write && last.More < math.MaxUint32 {
		last.More++
		return
	}
	if len(r.chunk) == cap(r.chunk) {
		open := r.chunk[r.open:]
		r.chunk = make([]Access, len(open), max(commChunk, 2*len(open)))
		copy(r.chunk, open)
		r.open = 0
	}
	r.chunk = append(r.chunk, Access{Run: run, Block: b, Write: write})
	r.Segments[n-1].Accs = r.chunk[r.open:len(r.chunk):len(r.chunk)]
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
