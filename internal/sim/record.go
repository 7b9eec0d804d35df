package sim

// Causal flight recorder and time attribution.
//
// When enabled (EnableRecorder), the kernel records a causality Edge for
// every *binding* wake — a wake that advanced the woken Proc's virtual
// clock: the Proc was the waiter and the wake was the constraint. Wakes
// that do not move the clock (a delivery that arrived while the Proc was
// busy, a barrier release at or before the Proc's own time) are not
// causal constraints and are not recorded. Binding edges are exactly the
// edges a backward critical-path walk follows (internal/causal), so the
// recorder captures the full constraint graph with one ring entry per
// blocking wake instead of one per event.
//
// Alongside edges, every virtual-clock mutation is charged to an
// attribution bucket: Advance charges the Proc's running category,
// resume jumps charge its waiting category, and delivery jumps split
// into network transit (Posted..At) and the waiting category (the
// pre-post remainder). Buckets therefore sum *exactly* to the Proc's
// final clock — the attribution invariant checked by internal/causal.
//
// Recording order equals dispatch order: hooks append directly to the
// shared ring as events are dispatched. All hooks are guarded by a
// single nil check (k.rec / p.aslot), so a disabled recorder is a dead
// branch with zero allocations on the hot paths.

// EdgeKind classifies what woke the destination Proc.
type EdgeKind uint8

const (
	// EdgeSpawn is the initial resume that starts a Proc at time 0.
	EdgeSpawn EdgeKind = iota
	// EdgeTimer is a Sleep expiry (self-posted resume).
	EdgeTimer
	// EdgeBarrier is a barrier release; Src is the last arriver and
	// Posted is the last arrival time (At - Posted = barrier cost).
	EdgeBarrier
	// EdgeDeliver is a message delivery that unblocked a Recv; Posted is
	// the sender's clock at the send (At - Posted = network transit).
	EdgeDeliver
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeSpawn:
		return "spawn"
	case EdgeTimer:
		return "timer"
	case EdgeBarrier:
		return "barrier"
	case EdgeDeliver:
		return "deliver"
	}
	return "?"
}

// causes carried on events so the recorder can classify resume edges.
const (
	causeNone    uint8 = iota // spawn (from == nil) or plain resume
	causeTimer                // Sleep expiry
	causeBarrier              // barrier release batch
)

// Edge is one binding wake: Dst's clock jumped from Prev to At because
// Src did something at Posted.
type Edge struct {
	Kind   EdgeKind
	Src    int32 // waking Proc id (-1 for spawn)
	Dst    int32 // woken Proc id
	At     Time  // wake time (Dst's clock after the jump)
	Posted Time  // Src's clock when it caused the wake
	Prev   Time  // Dst's clock before the jump
}

// Recorder is a fixed-capacity ring of causality edges shared by all
// Procs of one kernel. It is written only in dispatch order, so no
// locking is needed.
type Recorder struct {
	buf   []Edge
	next  int
	total int64
}

// DefaultRecorderCap bounds the flight recorder when no explicit
// capacity is given (≈40 B/edge → ~40 MiB at the default).
const DefaultRecorderCap = 1 << 20

// EnableRecorder switches on causal edge recording with a ring holding
// the last cap binding edges (cap <= 0 selects DefaultRecorderCap).
// Must be called before Run.
func (k *Kernel) EnableRecorder(cap int) *Recorder {
	if cap <= 0 {
		cap = DefaultRecorderCap
	}
	k.rec = &Recorder{buf: make([]Edge, 0, cap)}
	return k.rec
}

// Recorder returns the kernel's flight recorder (nil when disabled).
func (k *Kernel) Recorder() *Recorder { return k.rec }

func (r *Recorder) push(e Edge) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
}

// Total reports how many edges were recorded overall, including evicted
// ones; Total() > len(Edges()) means the ring wrapped and a critical-path
// walk may be truncated.
func (r *Recorder) Total() int64 { return r.total }

// Truncated reports whether the ring evicted edges.
func (r *Recorder) Truncated() bool { return r.total > int64(len(r.buf)) }

// Edges returns the retained edges in dispatch order, oldest first.
func (r *Recorder) Edges() []Edge {
	if len(r.buf) < cap(r.buf) {
		return append([]Edge(nil), r.buf...)
	}
	out := make([]Edge, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// resumeEdge classifies and records a binding evResume wake. prev is the
// Proc's clock before the jump.
func (p *Proc) resumeEdge(at, posted, prev Time, from *Proc, cause uint8) {
	e := Edge{Dst: int32(p.id), At: at, Posted: posted, Prev: prev, Src: -1}
	if from != nil {
		e.Src = int32(from.id)
	}
	switch cause {
	case causeTimer:
		e.Kind = EdgeTimer
	case causeBarrier:
		e.Kind = EdgeBarrier
	default:
		e.Kind = EdgeSpawn
	}
	p.k.rec.push(e)
}

// AttrCat is a time-attribution bucket. Every simulated nanosecond of a
// profiled Proc's clock lands in exactly one bucket.
type AttrCat uint8

const (
	// CatCompute is application computation (Worker.Compute).
	CatCompute AttrCat = iota
	// CatTransit is the final network hop of a binding delivery.
	CatTransit
	// CatOccupancy is messaging CPU overhead on the compute processor:
	// send occupancy, fault detection, block install.
	CatOccupancy
	// CatService is protocol service: the protocol processor's handler
	// time, and compute-side waits on protocol operations (gather).
	CatService
	// CatBarrier is time blocked in barriers (including the release cost).
	CatBarrier
	// CatStall is time a compute processor stalled on an access miss,
	// net of the final-hop transit (which lands in CatTransit).
	CatStall
	// CatPresend is pre-send overhead: executing deferred send schedules
	// at a phase boundary and waiting out the stabilization barrier.
	CatPresend
	// CatIdle is everything else: Sleep, a daemon waiting for work, or
	// waits no one tagged. A nonzero CatIdle on a compute processor
	// usually means a wait site is missing its SetWaitCat tag.
	CatIdle

	// NumCat is the number of attribution buckets.
	NumCat = int(CatIdle) + 1
)

func (c AttrCat) String() string {
	switch c {
	case CatCompute:
		return "compute"
	case CatTransit:
		return "transit"
	case CatOccupancy:
		return "occupancy"
	case CatService:
		return "service"
	case CatBarrier:
		return "barrier"
	case CatStall:
		return "stall"
	case CatPresend:
		return "presend"
	case CatIdle:
		return "idle"
	}
	return "?"
}

// AttrSlot accumulates attributed virtual time per category. The runtime
// points each Proc at one slot per phase (SetAttrSlot) and the kernel
// charges every clock mutation to the active slot, so the sum over all
// of a Proc's slots equals its final clock exactly.
type AttrSlot [NumCat]Time

// Sum returns the slot's total attributed time.
func (s *AttrSlot) Sum() Time {
	var t Time
	for _, v := range s {
		t += v
	}
	return t
}

// Add accumulates o into s.
func (s *AttrSlot) Add(o *AttrSlot) {
	for i := range s {
		s[i] += o[i]
	}
}

// SetAttrSlot directs subsequent time charges into slot (nil disables
// attribution for this Proc — the default). Callers switch slots at
// phase boundaries; the switch itself is free.
func (p *Proc) SetAttrSlot(slot *AttrSlot) { p.aslot = slot }

// AttrSlot returns the Proc's active attribution slot (nil when off).
func (p *Proc) AttrSlot() *AttrSlot { return p.aslot }

// SetRunCat sets the category charged by Advance (default CatCompute).
func (p *Proc) SetRunCat(c AttrCat) { p.runCat = c }

// SetWaitCat sets the category charged when a blocking wake jumps this
// Proc's clock (default CatIdle). Call before blocking; the tag is
// sticky until changed.
func (p *Proc) SetWaitCat(c AttrCat) { p.waitCat = c }

// AdvanceCat advances the clock like Advance but charges an explicit
// category, leaving the running category untouched.
func (p *Proc) AdvanceCat(d Time, c AttrCat) {
	if d > 0 {
		p.now += d
		if p.aslot != nil {
			p.aslot[c] += d
		}
	}
}

// chargeWait attributes a blocking-wake clock jump of d to the waiting
// category. Caller guarantees d > 0 and p.aslot != nil.
func (p *Proc) chargeWait(d Time) { p.aslot[p.waitCat] += d }

// chargeRecv attributes a binding delivery jump: the final hop
// (posted..at) is network transit; any blocked time before the sender
// posted is the waiting category. Caller guarantees at > prev and
// p.aslot != nil.
func (p *Proc) chargeRecv(at, posted, prev Time) {
	transit := at - posted
	if posted < prev {
		transit = at - prev // posted before we blocked: the whole jump is wire time
	} else {
		p.aslot[p.waitCat] += posted - prev
	}
	p.aslot[CatTransit] += transit
}
