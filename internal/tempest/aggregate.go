package tempest

import (
	"sync"

	"presto/internal/sim"
)

// Node-leader message aggregation.
//
// On a clustered interconnect the expensive resource is the top-level
// network: every cross-group message pays the full wire latency and
// send-startup cost. The protocol's bulk traffic — pre-send grants,
// write-update pushes, gather replies — is highly clumped by
// destination group: one home typically owes data to several consumers
// on the same remote cluster node within a single operation. With
// rt.Config.Aggregate on, PostBulk diverts such cross-group bulks into
// a per-destination-group buffer; a flush coalesces everything owed to
// one group into a single MsgAgg addressed to that group's leader (its
// lowest node ID), which redistributes the parts over the cheap
// intra-group fabric as ordinary MsgBulk messages. Per-message overhead
// is paid once per group instead of once per destination; each extra
// part costs only its routing word and payload.
//
// Aggregation is timing-visible but memory-invariant: the leader
// re-posts each part through the normal Post path, so the receiving
// protocol processors handle byte-identical MsgBulk messages in a
// possibly different order at different times — which the protocols
// already tolerate (bulk arrival order between distinct destinations
// is unordered even without aggregation).
//
// Flush discipline (all triggers are functions of virtual state, so
// every run of a configuration flushes identically):
//
//  1. Occupancy cap: a group buffer reaching aggFlushEntries entries
//     flushes immediately, bounding buffered data and message size.
//  2. End of operation: the pre-send walk and a write-update push
//     flush what they buffered before returning.
//  3. Idle protocol processor: ProtocolLoop flushes before blocking in
//     Recv, so buffered gather replies ride out as soon as the request
//     burst that produced them drains.
//  4. Phase boundary: the runtime flushes at every barrier arrival as a
//     safety net.
//
// A buffer therefore never outlives the operation that filled it —
// in particular it never spans a point where the buffering node blocks
// on a remote reply, which is what makes the scheme deadlock-free: no
// node's progress ever depends on data sitting in an unflushed buffer.

// aggFlushEntries is the occupancy cap: a group buffer holding this
// many bulk entries flushes without waiting for the operation to end.
// 64 entries of a typical block keep the aggregate well under the
// size where transit time dominates startup savings.
const aggFlushEntries = 64

// aggPool recycles the AggPart slices carried by MsgAgg, mirroring
// bulkPool: the flushing node takes a buffer, hands ownership to the
// message, and the leader returns it after redistributing the parts.
var aggPool = sync.Pool{
	New: func() any {
		s := make([]AggPart, 0, 8)
		return &s
	},
}

func getAggParts() []AggPart {
	return (*aggPool.Get().(*[]AggPart))[:0]
}

func putAggParts(s []AggPart) {
	if cap(s) == 0 {
		return
	}
	for i := range s {
		s[i] = AggPart{}
	}
	s = s[:0]
	aggPool.Put(&s)
}

// aggBuf is one destination group's pending parts.
type aggBuf struct {
	parts   []AggPart
	entries int // total bulk entries across parts (occupancy cap)
}

// EnableAggregation turns on node-leader coalescing for this node's
// cross-group bulks. dropEntry is the chaos mutation hook: a flush
// silently drops one coalesced entry, which surfaces either as a
// deadlock (a pre-send's consumer refetches a copy its home believes is
// in flight) or as an AggEntriesOut/AggEntriesIn gap in the aggregation
// conservation identity (check.Accounting).
func (n *Node) EnableAggregation(dropEntry bool) {
	if !n.Net.Clustered() {
		return // nothing to coalesce on a flat machine
	}
	n.aggOn = true
	n.aggDrop = dropEntry
	n.aggBufs = make([]aggBuf, n.Net.Groups)
}

// AggOn reports whether node-leader aggregation is active on this node.
func (n *Node) AggOn() bool { return n.aggOn }

// PostBulk routes a bulk transfer through the aggregation layer: with
// aggregation on, a cross-group bulk joins the destination group's
// buffer (its send cost deferred to the flush); everything else — local
// and intra-group destinations, or aggregation off — posts directly.
func (n *Node) PostBulk(src *sim.Proc, dst *Node, m MsgBulk) {
	if !n.aggOn || dst == n || n.Net.SameGroup(n.ID, dst.ID) {
		n.Post(src, dst, m)
		return
	}
	g := n.Net.GroupOf(dst.ID)
	buf := &n.aggBufs[g]
	if len(buf.parts) == 0 {
		if buf.parts == nil {
			buf.parts = getAggParts()
		}
		n.aggDirty = append(n.aggDirty, g)
	}
	buf.parts = append(buf.parts, AggPart{Dst: dst.ID, Bulk: m})
	buf.entries += len(m.Entries)
	if buf.entries >= aggFlushEntries {
		n.flushAggGroup(src, g)
	}
}

// FlushAgg posts every buffered aggregate, in the order the groups
// first became dirty (a deterministic function of protocol execution).
// Called at the end of each buffering operation and from the runtime's
// phase-boundary safety net; cheap when nothing is buffered.
func (n *Node) FlushAgg(src *sim.Proc) {
	for len(n.aggDirty) > 0 {
		g := n.aggDirty[0]
		n.flushAggGroup(src, g)
	}
}

// AggPending reports the number of bulk entries currently buffered
// (test hook: must be zero at quiescence).
func (n *Node) AggPending() int {
	total := 0
	for i := range n.aggBufs {
		total += n.aggBufs[i].entries
	}
	return total
}

// flushAggGroup sends group g's buffer. A single-part buffer posts its
// bulk straight to the final destination — an aggregate of one would
// add a leader hop for no startup saving. Multi-part buffers become one
// MsgAgg to the group leader; the conservation counters AggEntriesOut
// (here) and AggEntriesIn (at the leader) track every coalesced entry
// exactly.
func (n *Node) flushAggGroup(src *sim.Proc, g int) {
	buf := &n.aggBufs[g]
	for i, d := range n.aggDirty {
		if d == g {
			n.aggDirty = append(n.aggDirty[:i], n.aggDirty[i+1:]...)
			break
		}
	}
	parts := buf.parts
	buf.parts, buf.entries = nil, 0
	if len(parts) == 0 {
		putAggParts(parts)
		return
	}
	if len(parts) == 1 {
		dst, bulk := parts[0].Dst, parts[0].Bulk
		putAggParts(parts)
		n.Post(src, n.Peers[dst], bulk)
		return
	}
	for i := range parts {
		n.Stats.AggEntriesOut += int64(len(parts[i].Bulk.Entries))
	}
	if n.aggDrop {
		// Chaos mutation: lose one coalesced entry on the wire. Counted
		// as sent but never redistributed, so AggEntriesIn falls short
		// of AggEntriesOut machine-wide.
		for i := range parts {
			if k := len(parts[i].Bulk.Entries); k > 0 {
				parts[i].Bulk.Entries = parts[i].Bulk.Entries[:k-1]
				break
			}
		}
	}
	n.Stats.AggMsgs++
	leader := n.Peers[g*n.Net.GroupSize]
	n.Post(src, leader, MsgAgg{Parts: parts})
}

// redistributeAgg is the group leader's half: re-post each part to its
// final destination over the intra-group fabric as an ordinary MsgBulk.
// Runs on the leader's protocol processor (ProtocolLoop intercepts
// MsgAgg before protocol dispatch — no protocol ever sees one).
func (n *Node) redistributeAgg(p *sim.Proc, agg MsgAgg) {
	for _, part := range agg.Parts {
		n.Stats.AggEntriesIn += int64(len(part.Bulk.Entries))
		n.Post(p, n.Peers[part.Dst], part.Bulk)
	}
	putAggParts(agg.Parts)
}
