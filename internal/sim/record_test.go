package sim

import (
	"reflect"
	"runtime"
	"testing"
)

// eagerRing is the flight recorder as a preallocated ring: the storage
// for every edge is made up front. The on-demand ring must retain,
// order and truncate exactly like it.
type eagerRing struct {
	buf   []Edge
	next  int
	total int64
}

func (r *eagerRing) push(e Edge) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
}

func (r *eagerRing) edges() []Edge {
	if len(r.buf) < cap(r.buf) {
		return append([]Edge(nil), r.buf...)
	}
	return append(append([]Edge(nil), r.buf[r.next:]...), r.buf[:r.next]...)
}

// TestRecorderRingWraps: a small ring growing on demand wraps like a
// preallocated one — the same retained edges, oldest first, and the same
// Total and Truncated — before, at and after every wrap point.
func TestRecorderRingWraps(t *testing.T) {
	for _, capacity := range []int{1, 4, 100} {
		k := NewKernel()
		r := k.EnableRecorder(capacity)
		ref := &eagerRing{buf: make([]Edge, 0, capacity)}
		for i := 0; i < 3*capacity+2; i++ {
			e := Edge{Kind: EdgeKind(i % 4), Src: int32(i), Dst: int32(i + 1), At: Time(10 * i), Posted: Time(i), Prev: Time(i)}
			r.push(e)
			ref.push(e)
			if got, want := r.Edges(), ref.edges(); !reflect.DeepEqual(got, want) {
				t.Fatalf("cap %d after %d edges: Edges() = %v, want %v", capacity, i+1, got, want)
			}
			if r.Total() != ref.total || r.Truncated() != (ref.total > int64(len(ref.buf))) {
				t.Fatalf("cap %d after %d edges: Total %d Truncated %v, want %d %v",
					capacity, i+1, r.Total(), r.Truncated(), ref.total, ref.total > int64(len(ref.buf)))
			}
			if cap(r.buf) > capacity {
				t.Fatalf("cap %d: ring storage grew to %d edges", capacity, cap(r.buf))
			}
		}
	}
}

// TestEnableRecorderAllocatesO1: enabling the default-capacity recorder
// allocates no edge storage up front — a profiled machine that records
// a few edges must not pay for a million.
func TestEnableRecorderAllocatesO1(t *testing.T) {
	const n = 50
	kernels := make([]*Kernel, n)
	for i := range kernels {
		kernels[i] = NewKernel()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range kernels {
		k.EnableRecorder(0)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 1024 {
		t.Fatalf("EnableRecorder allocated %d bytes per call, want O(1)", per)
	}
}
