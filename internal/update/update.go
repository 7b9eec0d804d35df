// Package update implements a write-update protocol of the kind used by
// the hand-optimized SPMD Barnes baseline the paper compares against
// (Falsafi et al., "Application-Specific Protocols for User-Level Shared
// Memory"). Producers write their home-resident data without invalidating
// consumers' read-only copies, then push fresh data directly to the
// recorded consumers with an explicit application directive — one message
// per producer-consumer transfer instead of Stache's four (paper §3.2).
//
// As the paper notes, update protocols do not preserve sequential
// consistency and cannot be used in general: consumers may observe values
// one push behind. The hand-optimized applications tolerate that, which
// is exactly why they needed hand-written protocols.
package update

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"presto/internal/blockstate"
	"presto/internal/memory"
	"presto/internal/sim"
	"presto/internal/stache"
	"presto/internal/tempest"
)

// Update is the write-update protocol. Everything except the
// producer-consumer path inherits Stache behavior.
type Update struct {
	base *stache.Protocol

	// regions restricts the update fast path to specific memory regions
	// (nil = all). A hand-optimized application applies its custom
	// protocol only to its producer-consumer data (e.g. body positions
	// in SPMD Barnes) and leaves the rest under the default protocol.
	regions map[int]bool

	// Storage selects the block-state backend for the inherited Stache
	// state (dense by default). Set before Init.
	Storage blockstate.Kind
}

// New returns a write-update protocol instance applying to all regions.
func New() *Update { return &Update{base: stache.New()} }

// SetRegions restricts the update fast path to the given region IDs.
func (u *Update) SetRegions(ids ...int) {
	u.regions = make(map[int]bool, len(ids))
	for _, id := range ids {
		u.regions[id] = true
	}
}

// applies reports whether the update fast path covers block b.
func (u *Update) applies(b memory.Block) bool {
	return u.regions == nil || u.regions[b.RegionID()]
}

type nodeState struct {
	cache *stache.NodeState
}

// StacheState implements stache.StateHolder.
func (ns *nodeState) StacheState() *stache.NodeState { return ns.cache }

// Name implements tempest.Protocol.
func (u *Update) Name() string { return "update" }

// Init implements tempest.Protocol.
func (u *Update) Init(n *tempest.Node) {
	u.base.Storage = u.Storage
	n.ProtoState = &nodeState{cache: stache.NewNodeState(n.AS, u.Storage)}
}

// OnFault implements tempest.Protocol. A home-node write to a block with
// outstanding read-only copies upgrades locally without invalidating the
// sharers — they keep (stale) copies until the next push.
func (u *Update) OnFault(n *tempest.Node, b memory.Block, write bool) bool {
	if write && u.applies(b) && n.AS.HomeOf(b) == n.ID {
		e := n.Dir.Entry(b)
		if e.State == tempest.DirHome {
			n.Store.SetTag(b, memory.ReadWrite)
			return true
		}
	}
	return u.base.OnFault(n, b, write)
}

// Handle implements tempest.Protocol.
func (u *Update) Handle(n *tempest.Node, d sim.Delivery) {
	switch m := d.Msg.(type) {
	case tempest.MsgGetRO:
		if !u.applies(m.Block) {
			u.base.Handle(n, d)
			return
		}
		// Home-side read grant that registers the consumer but leaves the
		// home copy writable (no sequential consistency).
		e := n.Dir.Entry(m.Block)
		if e.State == tempest.DirHome {
			if m.Req == n.ID {
				n.WakeCompute(m.Block)
				return
			}
			e.Sharers.Add(m.Req)
			data := append([]byte(nil), n.Store.Data(m.Block)...)
			n.Post(n.ProtoProc, n.Peers[m.Req], tempest.MsgDataRO{Block: m.Block, Data: data})
			return
		}
		u.base.Handle(n, d)
	case tempest.MsgUpdate:
		u.installUpdate(n, m.Block, m.Data)
	case tempest.MsgBulk:
		// Pushed bulk updates.
		for _, e := range m.Entries {
			u.installUpdate(n, e.Block, e.Data)
		}
		tempest.PutBulk(m)
	default:
		u.base.Handle(n, d)
	}
}

// installUpdate refreshes a consumer's read-only copy in place.
func (u *Update) installUpdate(n *tempest.Node, b memory.Block, data []byte) {
	if l := n.Store.Line(b); l != nil && l.Tag == memory.ReadWrite {
		panic(fmt.Sprintf("update: node %d: update for writable block %#x", n.ID, uint64(b)))
	}
	n.ProtoProc.Advance(n.InstallCost(len(data)))
	n.Store.Install(b, data, memory.ReadOnly)
	n.WakeCompute(b)
}

// pushScratch is Push's per-call working set: one pending bulk per
// destination the push has touched. It comes from pushPool, so its size
// follows the destinations of one push (not the machine's node count)
// and only the pushes running at one instant hold one — a single scratch
// under the serial engine.
type pushScratch struct {
	slot map[int]int // destination -> index into pend
	pend []pendingPush
}

// pendingPush is the bulk a push is building for one destination.
type pendingPush struct {
	dst  int
	last memory.Block    // last block added (contiguity check)
	bulk tempest.MsgBulk // nil body once flushed
}

var pushPool = sync.Pool{
	New: func() any { return &pushScratch{slot: make(map[int]int)} },
}

// Push multicasts the current contents of the given home-resident blocks
// to their recorded consumers, coalescing contiguous blocks per
// destination. It runs on the compute processor (an explicit directive in
// the hand-optimized application) and is fire-and-forget: the application
// synchronizes with a barrier afterwards.
//
// A destination's bulk is sent as soon as the next block for it is not
// contiguous with its last one; whatever remains is sent at the end in
// ascending destination order.
func (u *Update) Push(n *tempest.Node, src *sim.Proc, blocks []memory.Block) {
	ps := pushPool.Get().(*pushScratch)
	for _, b := range blocks {
		if n.AS.HomeOf(b) != n.ID {
			panic(fmt.Sprintf("update: node %d pushing non-home block %#x", n.ID, uint64(b)))
		}
		e := n.Dir.Lookup(b)
		if e == nil || e.State != tempest.DirHome || e.Sharers.Empty() {
			continue
		}
		data := n.Store.Data(b)
		e.Sharers.ForEach(func(r int) {
			i, ok := ps.slot[r]
			if !ok {
				i = len(ps.pend)
				ps.slot[r] = i
				ps.pend = append(ps.pend, pendingPush{dst: r})
			}
			pp := &ps.pend[i]
			if pp.bulk.Bulk != nil && !n.AS.Contiguous(pp.last, b) {
				flushPush(n, src, pp)
			}
			if pp.bulk.Bulk == nil {
				pp.bulk = tempest.GetBulk()
			}
			pp.bulk.AddCopy(b, data)
			pp.last = b
			n.Stats.PresendsSent++
		})
	}
	slices.SortFunc(ps.pend, func(a, b pendingPush) int { return cmp.Compare(a.dst, b.dst) })
	for i := range ps.pend {
		if ps.pend[i].bulk.Bulk != nil {
			flushPush(n, src, &ps.pend[i])
		}
	}
	clear(ps.slot)
	ps.pend = ps.pend[:0]
	pushPool.Put(ps)
	// A push is one operation: drain the aggregation buffers before the
	// application reaches its synchronizing barrier.
	n.FlushAgg(src)
}

// flushPush sends pp's bulk; the message takes ownership of the body.
func flushPush(n *tempest.Node, src *sim.Proc, pp *pendingPush) {
	msg := pp.bulk
	pp.bulk = tempest.MsgBulk{}
	n.PostBulk(src, n.Peers[pp.dst], msg)
	n.Stats.BulkMsgs++
}
