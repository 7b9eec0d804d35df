package tempest

import (
	"math/rand"
	"reflect"
	"testing"

	"presto/internal/sim"

	"presto/internal/memory"
)

// TestCommRecordSegments: the recorder cuts a new segment on every
// (phase, iter) change, including a return to an earlier pair (the
// predictor counts occurrences to tell repeats apart), and each access's
// Run is its issue time minus the stalls noted before it.
func TestCommRecordSegments(t *testing.T) {
	const b0, b1 = memory.Block(0x100), memory.Block(1<<40 | 0x40)
	r := NewCommRecord()
	r.NoteAccess(-1, 0, 10, b0, true)
	r.NoteAccess(-1, 0, 15, b1, false)
	r.NoteStall(100) // a fault resolved between the second and third access
	r.NoteAccess(-1, 0, 130, b0, false)
	r.NoteAccess(2, 0, 140, b1, true) // phase change
	r.NoteStall(7)
	r.NoteAccess(2, 1, 160, b1, false)  // iteration change
	r.NoteAccess(-1, 0, 170, b0, false) // back to an earlier pair
	r.NoteAccess(-1, 0, 170, b0, true)

	want := []Segment{
		{Phase: -1, Iter: 0, At: 10, Accs: []Access{
			{Run: 10, Block: b0, Write: true},
			{Run: 15, Block: b1},
			{Run: 30, Block: b0},
		}},
		{Phase: 2, Iter: 0, At: 140, Accs: []Access{{Run: 40, Block: b1, Write: true}}},
		{Phase: 2, Iter: 1, At: 160, Accs: []Access{{Run: 53, Block: b1}}},
		{Phase: -1, Iter: 0, At: 170, Accs: []Access{
			{Run: 63, Block: b0},
			{Run: 63, Block: b0, Write: true},
		}},
	}
	if !reflect.DeepEqual(r.Segments, want) {
		t.Fatalf("segments\n got %+v\nwant %+v", r.Segments, want)
	}
}

// TestNoteAccessFoldsRepeats: an access identical to the segment's last
// entry (same Run, Block and Write) folds into it; a different Run,
// Block or Write, or a new segment, opens a new entry.
func TestNoteAccessFoldsRepeats(t *testing.T) {
	const b0, b1 = memory.Block(0x100), memory.Block(0x140)
	r := NewCommRecord()
	r.NoteAccess(0, 0, 10, b0, false)
	r.NoteAccess(0, 0, 10, b0, false) // folds
	r.NoteAccess(0, 0, 10, b0, false) // folds
	r.NoteAccess(0, 0, 10, b0, true)  // write: new entry
	r.NoteAccess(0, 0, 10, b0, true)  // folds
	r.NoteAccess(0, 0, 10, b0, false) // read again: new entry
	r.NoteAccess(0, 0, 10, b1, false) // block: new entry
	r.NoteAccess(0, 0, 12, b1, false) // run: new entry
	r.NoteStall(5)
	r.NoteAccess(0, 0, 17, b1, false) // same run after the stall: folds
	r.NoteAccess(0, 1, 17, b1, false) // segment boundary: new entry
	r.NoteAccess(0, 1, 17, b1, false) // folds

	want := []Segment{
		{Phase: 0, Iter: 0, At: 10, Accs: []Access{
			{Run: 10, Block: b0, More: 2},
			{Run: 10, Block: b0, Write: true, More: 1},
			{Run: 10, Block: b0},
			{Run: 10, Block: b1},
			{Run: 12, Block: b1, More: 1},
		}},
		{Phase: 0, Iter: 1, At: 17, Accs: []Access{{Run: 12, Block: b1, More: 1}}},
	}
	if !reflect.DeepEqual(r.Segments, want) {
		t.Fatalf("segments\n got %+v\nwant %+v", r.Segments, want)
	}
}

// TestNoteAccessExpandsToInput: a long random stream with many repeats,
// spanning several storage chunks and segments that straddle chunk
// boundaries, expands back to exactly the accesses recorded, and closed
// segments have no spare capacity to grow into their neighbours.
func TestNoteAccessExpandsToInput(t *testing.T) {
	type in struct {
		phase, iter int
		run         sim.Time
		b           memory.Block
		write       bool
	}
	rng := rand.New(rand.NewSource(1))
	r := NewCommRecord()
	var stream []in
	phase, iter, at := 0, 0, sim.Time(0)
	var last in
	for i := 0; i < 5*commChunk; i++ {
		if rng.Intn(3000) == 0 {
			iter++
		}
		if rng.Intn(9000) == 0 {
			phase++
		}
		a := last
		if rng.Intn(3) == 0 || i == 0 { // otherwise repeat the last access
			at += sim.Time(rng.Intn(3))
			a = in{phase, iter, 0, memory.Block(rng.Intn(4)) << 5, rng.Intn(2) == 0}
		}
		a.phase, a.iter = phase, iter
		stall := sim.Time(rng.Intn(2) * 7)
		r.NoteAccess(a.phase, a.iter, at, a.b, a.write)
		a.run = at - r.stallCum
		r.NoteStall(stall)
		at += stall
		stream = append(stream, a)
		last = a
	}
	var got []in
	entries := 0
	for si, s := range r.Segments {
		if si < len(r.Segments)-1 && cap(s.Accs) != len(s.Accs) {
			t.Fatalf("closed segment %d has cap %d > len %d", si, cap(s.Accs), len(s.Accs))
		}
		for _, a := range s.Accs {
			entries++
			for rep := uint32(0); rep <= a.More; rep++ {
				got = append(got, in{int(s.Phase), int(s.Iter), a.Run, a.Block, a.Write})
			}
		}
	}
	if !reflect.DeepEqual(got, stream) {
		t.Fatalf("expanded trace differs from the %d recorded accesses", len(stream))
	}
	if entries >= len(stream)/2 {
		t.Fatalf("%d entries for %d accesses: repeats did not fold", entries, len(stream))
	}
}

// TestCommRecordPresend: pre-send arrivals count per (phase, block),
// independent of the access trace.
func TestCommRecordPresend(t *testing.T) {
	r := NewCommRecord()
	r.NotePresend(-1, 0x40)
	r.NotePresend(3, 0x40)
	r.NotePresend(3, 0x40)
	r.NotePresend(3, 0x80)
	want := map[int]map[memory.Block]int64{
		-1: {0x40: 1},
		3:  {0x40: 2, 0x80: 1},
	}
	if !reflect.DeepEqual(r.Presend, want) {
		t.Fatalf("presend = %v, want %v", r.Presend, want)
	}
	if len(r.Segments) != 0 {
		t.Fatalf("pre-sends added %d access segments", len(r.Segments))
	}
}

// TestAccessSize pins the recorder's per-access footprint: a recorded
// access is 24 bytes (the trace dominates a calibration run's memory).
func TestAccessSize(t *testing.T) {
	if got := reflect.TypeOf(Access{}).Size(); got != 24 {
		t.Fatalf("Access is %d bytes, want 24", got)
	}
}
