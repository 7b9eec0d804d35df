package tempest

import (
	"reflect"
	"testing"

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
