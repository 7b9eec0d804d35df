package sim

// Pluggable pending-event schedulers.
//
// The kernel dispatches events in global (timestamp, sequence) order; the
// scheduler is the data structure that hands them out in that order. Two
// implementations exist: the binary eventHeap (sim.go), kept as the
// reference, and the hierarchical timing wheel below, which exploits the
// shape of discrete-event traffic in this simulator — long runs of events
// at the same or nearby timestamps (message bursts, barrier releases) —
// to make the common push/pop pair O(1) instead of O(log n).
//
// Both orders are identical: within a wheel bucket events are drained in
// (at, seq) order, buckets are swept in ascending time order, and the
// overflow heap releases far timers into their bucket before the cursor
// reaches it. A simulation therefore produces byte-identical results —
// same dispatch order, same statistics, same traces — under either
// scheduler; internal/chaos runs a differential across both to enforce
// this.

// SchedulerKind selects the kernel's pending-event data structure.
type SchedulerKind string

const (
	// SchedWheel is the timing-wheel scheduler (the default).
	SchedWheel SchedulerKind = "wheel"
	// SchedHeap is the binary-heap reference scheduler.
	SchedHeap SchedulerKind = "heap"
)

// DefaultWheelGranularity is the bucket width used when no explicit
// granularity is configured. Simulations driven by a network cost model
// should pass the model's minimum cross-node latency instead (see
// rt.Config.Sched), so one bucket spans the smallest cross-node gap.
const DefaultWheelGranularity = Microsecond

// scheduler is the kernel's pending-event set, ordered by (at, seq).
type scheduler interface {
	push(e *event)
	pushBatch(es []*event) // all events share es[0].at; seqs ascending
	pop() *event
	peek() *event // nil when empty
	len() int
}

// UseScheduler replaces the kernel's event scheduler. It must be called
// before any Proc is spawned or event posted; granularity sets the wheel
// bucket width (ignored by SchedHeap; <= 0 selects
// DefaultWheelGranularity).
func (k *Kernel) UseScheduler(kind SchedulerKind, granularity Time) {
	k.UseSchedulerSized(kind, granularity, 0)
}

// UseSchedulerSized is UseScheduler with an explicit wheel capacity hint:
// the near-wheel bucket count is the hint rounded up to a power of two
// (minimum wheelBuckets; <= 0 keeps the default). A machine with many
// processors in flight wants a wheel at least as wide as its concurrent
// event population so pushes stay O(1) appends instead of spilling to the
// overflow heap; bucket count never affects dispatch order, only the
// constant factors.
func (k *Kernel) UseSchedulerSized(kind SchedulerKind, granularity Time, buckets int) {
	if k.started || k.seq != 0 || k.sched.len() != 0 {
		panic("sim: UseScheduler after events were scheduled")
	}
	switch kind {
	case SchedHeap:
		k.sched = &heapSched{}
	case SchedWheel:
		k.sched = newWheel(granularity, buckets)
	default:
		panic("sim: unknown scheduler kind " + string(kind))
	}
}

// heapSched adapts the hand-rolled eventHeap to the scheduler interface.
type heapSched struct{ h eventHeap }

func (s *heapSched) push(e *event) { s.h.push(e) }
func (s *heapSched) pop() *event   { return s.h.pop() }
func (s *heapSched) len() int      { return len(s.h) }
func (s *heapSched) pushBatch(es []*event) {
	for _, e := range es {
		s.h.push(e)
	}
}
func (s *heapSched) peek() *event {
	if len(s.h) == 0 {
		return nil
	}
	return s.h.peek()
}

// wheelBuckets is the default near-wheel size (a power of two). The
// horizon — bucket count × granularity of virtual time — bounds how far
// ahead an event may land and still get an O(1) bucket append; anything
// farther waits in the overflow heap and migrates into its bucket as the
// cursor sweeps forward. Large machines pass a bigger hint through
// UseSchedulerSized (rt scales it with the node count) so a 1024-node
// burst doesn't thrash the overflow heap.
const wheelBuckets = 256

// maxWheelBuckets caps the hint: beyond this the wheel's resident
// footprint (one slice header per bucket) outweighs the overflow savings.
const maxWheelBuckets = 8192

// wheelSched is a single-level timing wheel with an overflow heap.
//
// Invariants:
//   - cur holds the remainder of bucket curIdx, sorted by (at, seq),
//     draining from curPos;
//   - buckets[i&mask] holds unsorted events whose bucket index i lies in
//     (curIdx, curIdx+size); slots never alias because two live
//     indices differ by less than size;
//   - overflow holds events at bucket indices >= curIdx+size (at
//     the time they were pushed); loadBucket migrates due entries;
//   - event times never precede the cursor: the kernel's dispatch time is
//     nondecreasing and every post is at the poster's current time or
//     later, so a push lands in cur (sorted insert) or ahead of it.
type wheelSched struct {
	g       Time // bucket width
	curIdx  int64
	cur     []*event
	curPos  int
	inWheel int // events in cur remainder + buckets (not overflow)

	size     int64 // bucket count (power of two)
	mask     int64 // size - 1
	buckets  [][]*event
	overflow eventHeap

	// spare recycles the largest drained bucket's storage for the next
	// batch push. Without it a periodic burst (a 1024-proc barrier
	// release) lands in a fresh empty bucket every time and re-grows it
	// from nothing, while the previously grown storage sits parked in a
	// slot the cursor only revisits a full wrap later.
	spare []*event
}

func newWheel(g Time, size int) *wheelSched {
	if g <= 0 {
		g = DefaultWheelGranularity
	}
	n := int64(wheelBuckets)
	for int64(size) > n && n < maxWheelBuckets {
		n <<= 1
	}
	return &wheelSched{g: g, size: n, mask: n - 1, buckets: make([][]*event, n)}
}

func (w *wheelSched) len() int { return w.inWheel + len(w.overflow) }

func (w *wheelSched) push(e *event) {
	idx := int64(e.at) / int64(w.g)
	switch {
	case idx <= w.curIdx:
		w.insertCur(e)
	case idx < w.curIdx+w.size:
		w.buckets[idx&w.mask] = append(w.buckets[idx&w.mask], e)
		w.inWheel++
	default:
		w.overflow.push(e)
	}
}

// pushBatch schedules a run of events that share one timestamp (ascending
// seq) — a barrier release — in one go: one bucket-index computation, and
// on the near-wheel path a single append covers the whole batch.
func (w *wheelSched) pushBatch(es []*event) {
	if len(es) == 0 {
		return
	}
	idx := int64(es[0].at) / int64(w.g)
	switch {
	case idx <= w.curIdx:
		for _, e := range es {
			w.insertCur(e)
		}
	case idx < w.curIdx+w.size:
		slot := idx & w.mask
		if b := w.buckets[slot]; len(b) == 0 && cap(b) < len(es) && len(es) <= cap(w.spare) {
			w.buckets[slot], w.spare = w.spare[:0], b
		}
		w.buckets[slot] = append(w.buckets[slot], es...)
		w.inWheel += len(es)
	default:
		for _, e := range es {
			w.overflow.push(e)
		}
	}
}

// insertCur places an event into the sorted remainder of the current
// bucket. The common cases append: a burst at one timestamp arrives in
// seq order, and anything later than the bucket's tail belongs at the end.
func (w *wheelSched) insertCur(e *event) {
	w.inWheel++
	if n := len(w.cur); n == w.curPos || eventAfter(e, w.cur[n-1]) {
		w.cur = append(w.cur, e)
		return
	}
	lo, hi := w.curPos, len(w.cur)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventAfter(e, w.cur[mid]) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	w.cur = append(w.cur, nil)
	copy(w.cur[lo+1:], w.cur[lo:])
	w.cur[lo] = e
}

// eventAfter reports whether a orders strictly after b in (at, seq).
func eventAfter(a, b *event) bool {
	if a.at != b.at {
		return a.at > b.at
	}
	return a.seq > b.seq
}

// peek returns the earliest pending event, advancing the cursor across
// empty buckets as needed (order is unaffected), or nil when empty.
func (w *wheelSched) peek() *event {
	for {
		if w.curPos < len(w.cur) {
			return w.cur[w.curPos]
		}
		if w.inWheel == 0 {
			if len(w.overflow) == 0 {
				return nil
			}
			// Every near bucket is empty: jump the cursor straight to the
			// earliest far timer's bucket instead of sweeping dead air.
			w.curIdx = int64(w.overflow.peek().at) / int64(w.g)
			w.loadBucket()
			continue
		}
		w.curIdx++
		w.loadBucket()
	}
}

func (w *wheelSched) pop() *event {
	e := w.peek()
	if e == nil {
		panic("sim: pop from empty scheduler")
	}
	w.cur[w.curPos] = nil
	w.curPos++
	w.inWheel--
	return e
}

// loadBucket makes bucket curIdx current: it swaps the slot's slice in
// (recycling the drained one's storage), migrates due overflow timers,
// and sorts the result by (at, seq). Insertion sort keeps the sweep O(1)
// per event for the dominant cases — a same-timestamp burst arrives
// already sorted because sequence numbers are assigned in push order.
func (w *wheelSched) loadBucket() {
	slot := w.curIdx & w.mask
	w.cur = w.cur[:0]
	w.cur, w.buckets[slot] = w.buckets[slot], w.cur
	// Keep the largest idle storage where the next batch push can find
	// it; the slot just holds the smaller one (it is empty either way).
	if cap(w.buckets[slot]) > cap(w.spare) {
		w.spare, w.buckets[slot] = w.buckets[slot], w.spare
	}
	w.curPos = 0
	for len(w.overflow) > 0 && int64(w.overflow.peek().at)/int64(w.g) <= w.curIdx {
		w.cur = append(w.cur, w.overflow.pop())
		w.inWheel++
	}
	q := w.cur
	for i := 1; i < len(q); i++ {
		e := q[i]
		j := i
		for j > 0 && eventAfter(q[j-1], e) {
			q[j] = q[j-1]
			j--
		}
		q[j] = e
	}
}
