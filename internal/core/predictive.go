// Package core implements the paper's primary contribution: the
// predictive cache-coherence protocol (paper §3).
//
// The protocol augments Stache in two parts. While a compiler-identified
// parallel phase executes, home-node handlers record every faulting
// read/write request into that phase's communication schedule
// (internal/schedule). When the phase is entered again in a later
// iteration, a compiler-placed directive triggers the pre-send phase: each
// home node walks its schedule and transfers data early — forwarding
// read-only copies to recorded readers (invalidating a current writer
// first) and writable copies to the recorded writer (invalidating current
// readers first). Neighboring blocks destined for the same node are
// coalesced into bulk messages to amortize message startup costs, and a
// global barrier after the pre-send ensures all block states are stable
// before the phase's computation begins (§3.4).
//
// Schedules are incremental: faults not anticipated by the pre-send extend
// the schedule for subsequent iterations, which is what lets the protocol
// track adaptive applications. Conflict blocks (read and written within
// one phase) are not pre-sent; the optional AnticipateConflicts mode
// implements the paper's suggested extension of pre-sending a conflict
// block's first stable state.
package core

import (
	"fmt"

	"presto/internal/blockstate"
	"presto/internal/memory"
	"presto/internal/schedule"
	"presto/internal/sim"
	"presto/internal/stache"
	"presto/internal/tempest"
)

// Predictive is the predictive protocol. It extends Stache: all default
// coherence behavior is inherited, with home-side recording hooks and the
// pre-send machinery layered on top.
type Predictive struct {
	base *stache.Protocol

	// Coalesce enables bulk transfer of neighboring scheduled blocks
	// (paper §3.4). On by default; exposed for the ablation benches.
	Coalesce bool
	// AnticipateConflicts pre-sends conflict blocks according to their
	// first stable state (the paper's suggested future extension).
	AnticipateConflicts bool
	// FlushEvery, when positive, rebuilds each phase's schedule from
	// scratch every FlushEvery-th pre-send of that phase — the paper's
	// remedy for patterns with many deletions ("the schedule must be
	// rebuilt often by flushing the old schedule and building a new
	// one", §3.3), automated as a protocol policy.
	FlushEvery int

	// Storage selects the block-state backend for schedules and the
	// inherited Stache state (dense by default). Set before Init.
	Storage blockstate.Kind
}

// New returns a predictive protocol with the paper's configuration
// (coalescing on, conflicts not pre-sent).
func New() *Predictive {
	p := &Predictive{base: stache.New(), Coalesce: true}
	p.base.Hooks = p
	return p
}

// nodeState is the predictive protocol's per-node state.
type nodeState struct {
	cache *stache.NodeState // Stache cache-side state

	table     *schedule.Table // schedules for blocks this node homes
	recording bool
	phase     int
	// curSched caches table.Phase(phase) while recording, so the
	// per-fault record hooks skip the phase-map lookup.
	curSched *schedule.Phase

	// bulks holds the per-destination coalescing state of the pre-send
	// walk (reused across walks; entry buffers come from the tempest
	// bulk pool and are handed off with each MsgBulk).
	bulks []pendingBulk

	// Pre-send walk bookkeeping (protocol processor).
	presendActive      bool
	presendPhase       int
	presendOutstanding int

	// seen counts executions of each phase directive on this node; the
	// pre-send (and its stabilization barrier) runs from the second
	// execution on. SPMD execution makes this consistent across nodes.
	seen map[int]int
	// presends counts pre-send executions per phase (FlushEvery policy).
	presends map[int]int
}

// StacheState implements stache.StateHolder.
func (ns *nodeState) StacheState() *stache.NodeState { return ns.cache }

func pstate(n *tempest.Node) *nodeState {
	ns, ok := n.ProtoState.(*nodeState)
	if !ok {
		panic(fmt.Sprintf("core: node %d not initialized for predictive protocol", n.ID))
	}
	return ns
}

// Name implements tempest.Protocol.
func (p *Predictive) Name() string { return "predictive" }

// Init implements tempest.Protocol.
func (p *Predictive) Init(n *tempest.Node) {
	p.base.Storage = p.Storage
	n.ProtoState = &nodeState{
		cache:    stache.NewNodeState(n.AS, p.Storage),
		table:    schedule.NewTable(n.AS, p.Storage),
		phase:    -1,
		seen:     make(map[int]int),
		presends: make(map[int]int),
	}
}

// OnFault implements tempest.Protocol (inherited from Stache).
func (p *Predictive) OnFault(n *tempest.Node, b memory.Block, write bool) bool {
	return p.base.OnFault(n, b, write)
}

// Handle implements tempest.Protocol.
func (p *Predictive) Handle(n *tempest.Node, d sim.Delivery) {
	if m, ok := d.Msg.(tempest.MsgPresendGo); ok {
		p.runPresend(n, m.Phase)
		return
	}
	p.base.Handle(n, d)
}

// RecordRead implements stache.Hooks: extend the current phase's schedule.
func (p *Predictive) RecordRead(n *tempest.Node, b memory.Block, req int) {
	ns := pstate(n)
	if !ns.recording {
		return
	}
	if ns.curSched.RecordRead(b, req) {
		n.Stats.Conflicts++
	}
}

// RecordWrite implements stache.Hooks.
func (p *Predictive) RecordWrite(n *tempest.Node, b memory.Block, req int) {
	ns := pstate(n)
	if !ns.recording {
		return
	}
	if ns.curSched.RecordWrite(b, req) {
		n.Stats.Conflicts++
	}
}

// PresendOpDone implements stache.Hooks: one pre-send-generated grant has
// completed at this home node.
func (p *Predictive) PresendOpDone(n *tempest.Node, b memory.Block) {
	ns := pstate(n)
	if !ns.presendActive {
		return
	}
	ns.presendOutstanding--
	if ns.presendOutstanding == 0 {
		p.finishPresend(n)
	}
}

// BeginPhase implements tempest.PhaseProtocol. It runs on the compute
// processor: from the second execution of a phase directive on, it
// triggers the pre-send walk on the protocol processor and blocks until
// completion. The returned duration is this node's pre-send time (the
// runtime adds the stabilization barrier separately).
func (p *Predictive) BeginPhase(n *tempest.Node, phase int) sim.Time {
	ns := pstate(n)
	first := ns.seen[phase] == 0
	ns.seen[phase]++
	ns.recording = true
	ns.phase = phase
	if first {
		ns.curSched = ns.table.Phase(phase)
		return 0
	}
	ns.presends[phase]++
	if p.FlushEvery > 0 && ns.presends[phase]%p.FlushEvery == 0 {
		// Periodic rebuild: drop the (possibly deletion-stale) schedule
		// and relearn it from this execution's faults.
		ns.table.Flush(phase)
	}
	// Cache after the possible flush so records extend the live schedule.
	ns.curSched = ns.table.Phase(phase)
	start := n.Compute.Now()
	n.Post(n.Compute, n, tempest.MsgPresendGo{Phase: phase})
	n.RecvCompute(n.Compute, func(m any) bool {
		pd, ok := m.(tempest.MsgPresendDone)
		if ok && pd.Phase != phase {
			panic(fmt.Sprintf("core: node %d: presend-done for phase %d during phase %d", n.ID, pd.Phase, phase))
		}
		return ok
	})
	dt := n.Compute.Now() - start
	n.Stats.Presend += dt
	if ps := n.CurPhase(); ps != nil {
		ps.PresendNS += int64(dt)
	}
	return dt
}

// EndPhase implements tempest.PhaseProtocol.
func (p *Predictive) EndPhase(n *tempest.Node, phase int) {
	ns := pstate(n)
	ns.recording = false
	ns.phase = -1
	ns.curSched = nil
}

// FlushSchedules drops this node's schedules (all phases, or one phase if
// id >= 0) — the paper's remedy for deletion-heavy pattern changes.
func (p *Predictive) FlushSchedules(n *tempest.Node, id int) {
	ns := pstate(n)
	if id < 0 {
		ns.table.FlushAll()
	} else {
		ns.table.Flush(id)
	}
	if ns.recording && (id < 0 || id == ns.phase) {
		// The cached schedule was just dropped; records must extend the
		// replacement.
		ns.curSched = ns.table.Phase(ns.phase)
	}
}

// DebugPresend reports the node's pre-send bookkeeping (diagnostics).
func (p *Predictive) DebugPresend(n *tempest.Node) (active bool, phase, outstanding int) {
	ns := pstate(n)
	return ns.presendActive, ns.presendPhase, ns.presendOutstanding
}

// ScheduleTable exposes the node's schedule table (tests, stats).
func (p *Predictive) ScheduleTable(n *tempest.Node) *schedule.Table { return pstate(n).table }

// pendingBulk accumulates coalesced pre-send data for one destination.
type pendingBulk struct {
	lastBlock memory.Block
	bulk      tempest.MsgBulk // nil body until the first entry
}

// runPresend executes the pre-send walk on n's protocol processor.
func (p *Predictive) runPresend(n *tempest.Node, phase int) {
	ns := pstate(n)
	ph := ns.table.Lookup(phase)
	if ph == nil || ph.Empty() {
		p.sendPresendDone(n, phase)
		return
	}
	ns.presendActive = true
	ns.presendPhase = phase
	ns.presendOutstanding = 1 // walk sentinel

	if ns.bulks == nil {
		ns.bulks = make([]pendingBulk, len(n.Peers))
	}
	flush := func(dst int) {
		pb := &ns.bulks[dst]
		if pb.bulk.Bulk == nil {
			return
		}
		// The message takes ownership of the pooled body; the receiver
		// returns it after installing the entries. PostBulk diverts
		// cross-group bulks into the node-leader aggregation buffer when
		// rt.Config.Aggregate is on.
		msg := pb.bulk
		msg.Presend = true
		pb.bulk = tempest.MsgBulk{}
		n.PostBulk(n.ProtoProc, n.Peers[dst], msg)
		n.Stats.BulkMsgs++
	}

	// enqueue adds one immediately-grantable read copy for dst,
	// coalescing with the previous block if contiguous.
	enqueue := func(b memory.Block, dst int, data []byte) {
		if !p.Coalesce {
			n.Post(n.ProtoProc, n.Peers[dst], tempest.MsgDataRO{Block: b, Data: data, Presend: true})
			n.Stats.PresendsSent++
			return
		}
		pb := &ns.bulks[dst]
		if pb.bulk.Bulk != nil && !n.AS.Contiguous(pb.lastBlock, b) {
			flush(dst)
		}
		if pb.bulk.Bulk == nil {
			pb.bulk = tempest.GetBulk()
		}
		pb.bulk.Entries = append(pb.bulk.Entries, tempest.BulkEntry{Block: b, Data: data})
		pb.lastBlock = b
		n.Stats.PresendsSent++
	}

	for _, e := range ph.Entries() {
		mode, readers, writer := e.Mode, e.Readers, e.Writer
		if mode == schedule.ModeConflict {
			if !p.AnticipateConflicts {
				continue
			}
			mode, readers, writer = e.FirstMode, e.FirstReaders, e.FirstWriter
		}
		switch mode {
		case schedule.ModeRead:
			dir := n.Dir.Entry(e.Block)
			if dir.State == tempest.DirHome {
				// Fast path: forward read-only copies directly, with
				// coalescing.
				downgraded := false
				readers.ForEach(func(r int) {
					if r == n.ID || dir.Sharers.Has(r) {
						n.Stats.PresendsSkipped++
						return
					}
					if !downgraded && n.Store.Tag(e.Block) == memory.ReadWrite {
						n.Store.SetTag(e.Block, memory.ReadOnly)
						downgraded = true
					}
					dir.Sharers.Add(r)
					data := append([]byte(nil), n.Store.Data(e.Block)...)
					enqueue(e.Block, r, data)
				})
				continue
			}
			// Slow path (current writer must be recalled first): route
			// each reader through the regular request machinery.
			readers.ForEach(func(r int) {
				ns.presendOutstanding++
				p.base.HandleGet(n, e.Block, r, false, true)
			})
		case schedule.ModeWrite:
			if writer < 0 {
				continue
			}
			ns.presendOutstanding++
			p.base.HandleGet(n, e.Block, writer, true, true)
		}
	}
	// Flush residual batches in destination order for determinism, then
	// drain anything the aggregation layer buffered during the walk.
	for dst := range n.Peers {
		flush(dst)
	}
	n.FlushAgg(n.ProtoProc)
	// Drop the walk sentinel.
	ns.presendOutstanding--
	if ns.presendOutstanding == 0 {
		p.finishPresend(n)
	}
}

func (p *Predictive) finishPresend(n *tempest.Node) {
	ns := pstate(n)
	ns.presendActive = false
	p.sendPresendDone(n, ns.presendPhase)
}

func (p *Predictive) sendPresendDone(n *tempest.Node, phase int) {
	n.ProtoProc.Send(n.Compute, tempest.MsgPresendDone{Phase: phase}, n.Net.LocalDelay)
}
