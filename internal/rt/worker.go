package rt

import (
	"presto/internal/memory"
	"presto/internal/sim"
	"presto/internal/tempest"
	"presto/internal/trace"
	"presto/internal/update"
)

// Worker is one node's view of a running SPMD program: shared-memory
// access, phase directives, barriers and reductions. All methods must be
// called from the worker's own compute processor (i.e. inside the Program
// body).
type Worker struct {
	M    *Machine
	Node *tempest.Node
	P    *sim.Proc
	ID   int

	redEpoch int
	seen     map[int]int
}

// Nodes returns the machine's node count.
func (w *Worker) Nodes() int { return w.M.Cfg.Nodes }

// Compute models t of application computation.
func (w *Worker) Compute(t sim.Time) {
	w.Node.Stats.Compute += t
	if ps := w.Node.CurPhase(); ps != nil {
		ps.ComputeNS += int64(t)
	}
	w.P.Advance(t)
}

// ReadF64 loads a shared float64 (faulting into the protocol as needed).
func (w *Worker) ReadF64(a memory.Addr) float64 { return w.Node.ReadF64(w.P, a) }

// WriteF64 stores a shared float64.
func (w *Worker) WriteF64(a memory.Addr, v float64) { w.Node.WriteF64(w.P, a, v) }

// AtomicAddF64 adds delta to a shared float64 atomically (write access is
// acquired before the read, so the read-modify-write cannot be torn by a
// concurrent writer — the shared-memory analogue of a lock-protected
// accumulate).
func (w *Worker) AtomicAddF64(a memory.Addr, delta float64) {
	w.Node.RMWF64(w.P, a, func(v float64) float64 { return v + delta })
}

// ReadU64 loads a shared uint64.
func (w *Worker) ReadU64(a memory.Addr) uint64 { return w.Node.ReadU64(w.P, a) }

// WriteU64 stores a shared uint64.
func (w *Worker) WriteU64(a memory.Addr, v uint64) { w.Node.WriteU64(w.P, a, v) }

// ReadU32 loads a shared uint32.
func (w *Worker) ReadU32(a memory.Addr) uint32 { return w.Node.ReadU32(w.P, a) }

// WriteU32 stores a shared uint32.
func (w *Worker) WriteU32(a memory.Addr, v uint32) { w.Node.WriteU32(w.P, a, v) }

// Barrier joins the machine-wide barrier, accounting the wait as
// synchronization time. It first drains anything the compute processor
// left in the node-leader aggregation buffers — the phase-boundary
// safety net: no coalesced bulk ever survives into the next phase.
func (w *Worker) Barrier() {
	w.Node.FlushAgg(w.P)
	w.P.SetWaitCat(sim.CatBarrier)
	wait := w.P.Wait(w.M.barrier)
	w.P.SetWaitCat(sim.CatIdle)
	w.Node.Stats.Sync += wait
	if ps := w.Node.CurPhase(); ps != nil {
		ps.SyncNS += int64(wait)
	}
}

// Phase executes body as compiler-identified parallel phase id. On a
// predictive machine this runs the phase directive: from the second
// execution on, the pre-send transfers scheduled data and a stabilization
// barrier aligns the nodes (both accounted as pre-send time, the figures'
// "predictive protocol" bucket); faulting requests during body extend the
// phase's communication schedule. Every phase ends with the data-parallel
// completion barrier (synchronization time).
func (w *Worker) Phase(id int, body func()) {
	if w.seen == nil {
		w.seen = make(map[int]int)
	}
	iter := w.seen[id]
	first := iter == 0
	w.seen[id]++
	w.beginPhase(id, iter)
	pp, predictive := w.M.Proto.(tempest.PhaseProtocol)
	if predictive {
		w.P.SetWaitCat(sim.CatPresend)
		pp.BeginPhase(w.Node, id)
		if !first {
			// Stabilization barrier after the pre-send (paper §3.4).
			wait := w.P.Wait(w.M.barrier)
			w.Node.Stats.Presend += wait
			if ps := w.Node.CurPhase(); ps != nil {
				ps.PresendNS += int64(wait)
			}
		}
		w.P.SetWaitCat(sim.CatIdle)
	}
	body()
	w.Barrier()
	if predictive {
		pp.EndPhase(w.Node, id)
	}
	w.endPhase(id, iter)
}

// beginPhase enters the phase metrics context and records the trace span
// opening on this node's compute track.
func (w *Worker) beginPhase(id, iter int) {
	w.Node.BeginPhaseMetrics(id, iter)
	if w.Node.Trace != nil {
		w.Node.Trace.Record(trace.Event{
			At: w.P.Now(), Node: w.ID, Proc: trace.ProcCompute,
			Kind: trace.PhaseBegin, Phase: id, Iter: iter,
			What: w.M.PhaseName(id),
		})
	}
}

// endPhase closes the trace span and leaves the metrics context.
func (w *Worker) endPhase(id, iter int) {
	if w.Node.Trace != nil {
		w.Node.Trace.Record(trace.Event{
			At: w.P.Now(), Node: w.ID, Proc: trace.ProcCompute,
			Kind: trace.PhaseEnd, Phase: id, Iter: iter,
			What: w.M.PhaseName(id),
		})
	}
	w.Node.EndPhaseMetrics()
}

// Directive runs a compiler-placed phase directive decoupled from the
// parallel work it covers (used by the interpreter, where a hoisted
// directive precedes a loop of parallel calls): the pre-send executes and
// recording for phase id begins. On non-phase protocols it is a no-op.
func (w *Worker) Directive(id int) {
	if w.seen == nil {
		w.seen = make(map[int]int)
	}
	iter := w.seen[id]
	first := iter == 0
	w.seen[id]++
	if cur, it := w.Node.PhaseContext(); cur >= 0 {
		// A new directive ends the previous one's attribution span.
		w.endPhase(cur, it)
	}
	w.beginPhase(id, iter)
	pp, ok := w.M.Proto.(tempest.PhaseProtocol)
	if !ok {
		return
	}
	w.P.SetWaitCat(sim.CatPresend)
	pp.BeginPhase(w.Node, id)
	if !first {
		wait := w.P.Wait(w.M.barrier)
		w.Node.Stats.Presend += wait
		if ps := w.Node.CurPhase(); ps != nil {
			ps.PresendNS += int64(wait)
		}
	}
	w.P.SetWaitCat(sim.CatIdle)
}

// ParallelStep executes one data-parallel operation under the phase
// established by the last Directive: the body runs, then the
// data-parallel completion barrier.
func (w *Worker) ParallelStep(body func()) {
	body()
	w.Barrier()
}

// FlushSchedules drops this node's communication schedules (phase id, or
// all if id < 0). Call between phases, right after a barrier.
func (w *Worker) FlushSchedules(id int) {
	if p, ok := w.M.Proto.(interface {
		FlushSchedules(n *tempest.Node, id int)
	}); ok {
		p.FlushSchedules(w.Node, id)
	}
	// A flushed schedule restarts its learning: reset the node's schedule
	// hit/consumption counters so coverage reflects the new schedule.
	w.Node.ResetPresendCounters(id)
}

// PushUpdates multicasts the current contents of home-resident blocks to
// their recorded consumers (write-update protocol only; a no-op
// otherwise). The push cost is accounted as compute time, since it is part
// of the hand-optimized application's loop rather than a transparent
// protocol action.
func (w *Worker) PushUpdates(addrs []memory.Addr) {
	u, ok := w.M.Proto.(*update.Update)
	if !ok {
		return
	}
	blocks := make([]memory.Block, 0, len(addrs))
	var last memory.Block
	for i, a := range addrs {
		b := w.M.AS.BlockOf(a)
		if i > 0 && b == last {
			continue
		}
		blocks = append(blocks, b)
		last = b
	}
	start := w.P.Now()
	u.Push(w.Node, w.P, blocks)
	w.Node.Stats.Compute += w.P.Now() - start
}

// ReduceSum returns the sum of every worker's v. It synchronizes all
// workers (one barrier) like C**'s language-level reductions, which do not
// go through the coherence protocol.
func (w *Worker) ReduceSum(v float64) float64 {
	buf := w.reduceSlot(v)
	var s float64
	for _, x := range buf {
		s += x
	}
	return s
}

// ReduceMax returns the maximum of every worker's v.
func (w *Worker) ReduceMax(v float64) float64 {
	buf := w.reduceSlot(v)
	max := buf[0]
	for _, x := range buf[1:] {
		if x > max {
			max = x
		}
	}
	return max
}

// reduceSlot deposits v and synchronizes; the returned buffer holds every
// worker's contribution. Alternating buffers make back-to-back reductions
// safe with a single barrier each.
func (w *Worker) reduceSlot(v float64) []float64 {
	buf := w.M.redBufs[w.redEpoch&1]
	w.redEpoch++
	buf[w.ID] = v
	w.Barrier()
	return buf
}

// Gather fetches read-only copies of the blocks containing addrs with one
// bulk request per home node and blocks until every home has replied —
// the execution step of an inspector-executor runtime (CHAOS-style,
// paper §2). Blocks the node already holds are skipped; blocks a home
// cannot serve from its valid copy are skipped by the home (subsequent
// reads fault normally). The wait is accounted as remote-data time.
func (w *Worker) Gather(addrs []memory.Addr) {
	start := w.P.Now()
	perHome := make([][]memory.Block, w.Nodes())
	seen := map[memory.Block]bool{}
	for _, a := range addrs {
		b := w.M.AS.BlockOf(a)
		if seen[b] {
			continue
		}
		seen[b] = true
		if l := w.Node.Store.Line(b); l != nil && l.Tag != memory.Invalid {
			continue // already cached
		}
		home := w.M.AS.HomeOf(b)
		if home == w.ID {
			continue
		}
		perHome[home] = append(perHome[home], b)
	}
	expect := 0
	for home, blocks := range perHome {
		if len(blocks) == 0 {
			continue
		}
		w.Node.Post(w.P, w.M.Nodes[home], tempest.MsgGetBulk{Blocks: blocks, Req: w.ID})
		expect++
	}
	w.P.SetWaitCat(sim.CatStall)
	for k := 0; k < expect; k++ {
		w.Node.RecvCompute(w.P, func(m any) bool {
			_, ok := m.(tempest.MsgGatherDone)
			return ok
		})
	}
	w.P.SetWaitCat(sim.CatIdle)
	w.Node.Stats.RemoteWait += w.P.Now() - start
}

// Signal sends an application-level token to another worker's compute
// processor (e.g. serializing parallel tree insertion). Sender occupancy
// and transit follow the cost model.
func (w *Worker) Signal(dst, tag int) {
	m := tempest.MsgSignal{Tag: tag, From: w.ID}
	if dst == w.ID {
		panic("rt: signal to self")
	}
	w.P.AdvanceCat(w.M.Cfg.Net.SendCost(m.PayloadBytes()), sim.CatOccupancy)
	w.P.Send(w.M.Nodes[dst].Compute, m, w.M.Cfg.Net.TransitDelayPair(m.PayloadBytes(), w.ID, dst))
	w.Node.Stats.MsgsSent++
	w.Node.Stats.BytesSent += int64(m.PayloadBytes() + w.M.Cfg.Net.HeaderBytes)
	if !w.M.Cfg.Net.SameGroup(w.ID, dst) {
		w.Node.Stats.CrossMsgs++
	}
}

// AwaitSignal blocks until a signal arrives (possibly already stashed
// while the worker was in a protocol wait) and returns its tag. The wait
// is accounted as synchronization time.
func (w *Worker) AwaitSignal() int {
	if d, ok := w.Node.PopSignal(); ok {
		return d.Msg.(tempest.MsgSignal).Tag
	}
	start := w.P.Now()
	w.P.SetWaitCat(sim.CatBarrier)
	d := w.Node.RecvCompute(w.P, func(m any) bool {
		_, ok := m.(tempest.MsgSignal)
		return ok
	})
	w.P.SetWaitCat(sim.CatIdle)
	w.Node.Stats.Sync += w.P.Now() - start
	return d.Msg.(tempest.MsgSignal).Tag
}

// CombineArrays element-wise sums every worker's private contribution
// array and returns the [lo,hi) slice of the total. It models a
// language-level array reduction (C** reductions are implemented by the
// runtime outside the coherence protocol, paper §1): one barrier, a
// log-free gather cost charged per node, and a second barrier before the
// buffers may be reused.
func (w *Worker) CombineArrays(local []float64, lo, hi int) []float64 {
	m := w.M
	m.combBufs[w.ID] = local
	w.Barrier()
	out := make([]float64, hi-lo)
	for _, buf := range m.combBufs {
		for i := lo; i < hi; i++ {
			out[i-lo] += buf[i]
		}
	}
	// Gather cost: (P-1) remote segments of (hi-lo) float64s, plus the
	// adds themselves.
	n := m.Cfg.Nodes
	bytes := (n - 1) * (hi - lo) * 8
	cost := sim.Time(n-1)*m.Cfg.Net.SendOverhead + sim.Time(bytes)*m.Cfg.Net.PerByteWire +
		sim.Time((hi-lo)*n)*costAdd
	w.Compute(cost)
	w.Barrier()
	return out
}

// costAdd is the modeled cost of one floating-point accumulate during a
// runtime-implemented reduction.
const costAdd = 30 * sim.Nanosecond

// Range block-partitions n items over the machine's workers and returns
// this worker's half-open interval.
func (w *Worker) Range(n int) (lo, hi int) {
	per := (n + w.Nodes() - 1) / w.Nodes()
	lo = w.ID * per
	hi = lo + per
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}
