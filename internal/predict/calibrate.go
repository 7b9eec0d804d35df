package predict

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"presto/internal/causal"
	"presto/internal/memory"
	"presto/internal/rt"
	"presto/internal/tempest"
)

// MaxNodes is the largest calibration machine Calibrate accepts: the
// replay keeps each coarse block's sharer, grace and subscriber sets as
// 64-bit node masks.
const MaxNodes = 64

// Calibrate distills a completed calibration run — a machine executed
// with rt.Config.Profile and rt.Config.Record both enabled — into the
// analytical model's tables. The machine must have finished its Run.
func Calibrate(m *rt.Machine, app string) (*Calibration, error) {
	if !m.Cfg.Profile || !m.Cfg.Record {
		return nil, fmt.Errorf("predict: calibration needs rt.Config.Profile and rt.Config.Record enabled")
	}
	if m.Cfg.Nodes > MaxNodes {
		return nil, fmt.Errorf("predict: calibration machine has %d nodes; the replay supports at most %d", m.Cfg.Nodes, MaxNodes)
	}
	prof, err := m.Profile(app)
	if err != nil {
		return nil, fmt.Errorf("predict: %w", err)
	}
	if err := prof.Validate(); err != nil {
		return nil, fmt.Errorf("predict: calibration profile invalid: %w", err)
	}
	n0 := m.Cfg.Nodes
	b0 := m.Cfg.BlockSize
	c := &Calibration{
		App:       app,
		Protocol:  string(m.Cfg.Protocol),
		Nodes:     n0,
		BlockSize: b0,
		Net:       m.Cfg.Net,
		ElapsedNS: int64(m.Elapsed()),
		bd0:       m.Breakdown(),
		ct0:       m.Counters(),
	}

	// Phase list: the union of phase IDs seen by any node's profile,
	// -1 (outside) first, then ascending.
	seen := map[int]bool{}
	var ids []int
	perNode := make([]map[int]causal.Buckets, n0)
	for i, np := range prof.PerNode {
		if i >= n0 {
			break
		}
		perNode[np.Node] = map[int]causal.Buckets{}
		for _, pa := range np.Phases {
			perNode[np.Node][pa.Phase] = pa.Buckets
			if !seen[pa.Phase] {
				seen[pa.Phase] = true
				ids = append(ids, pa.Phase)
			}
		}
	}
	sort.Ints(ids)

	names := map[int]string{}
	for _, id := range ids {
		if id == -1 {
			names[id] = "(outside)"
		} else {
			names[id] = m.PhaseName(id)
		}
	}

	c.phases = make([]phaseCal, len(ids))
	for pi, id := range ids {
		ph := &c.phases[pi]
		ph.id = id
		ph.name = names[id]
		ph.nodes = make([]nodeCal, n0)
		for n := 0; n < n0; n++ {
			b := perNode[n][id]
			nc := &ph.nodes[n]
			nc.compute = float64(b.ComputeNS)
			nc.transit = float64(b.TransitNS)
			nc.occupancy = float64(b.OccupancyNS)
			nc.service = float64(b.ServiceNS)
			nc.barrier = float64(b.BarrierNS)
			nc.stall = float64(b.StallNS)
			nc.presend = float64(b.PresendNS)
			// Same summation order as predict()'s busyT — the
			// identity-exactness guarantee depends on it.
			nc.busy0 = nc.compute + nc.stall + nc.transit + nc.occupancy +
				nc.service + nc.presend
			total := nc.busy0 + nc.barrier + float64(b.IdleNS)
			if total > ph.span0 {
				ph.span0 = total
			}
			if nc.busy0 > ph.busyCrit0 {
				ph.busyCrit0 = nc.busy0
			}
			ph.sumBusy0 += nc.busy0
		}
		c.sumSpan0 += ph.span0
	}

	if err := c.buildShifts(m); err != nil {
		return nil, err
	}

	// Target-independent ratio denominators: the home-weighted per-fault
	// latency and transit at the calibration point.
	for pi := range c.phases {
		for n := 0; n < n0; n++ {
			nc := &c.phases[pi].nodes[n]
			base := (pi*n0 + n) * n0
			hist := c.shifts[0].faultHome[base : base+n0]
			for h := 0; h < n0; h++ {
				w := hist[h]
				if w == 0 {
					continue
				}
				nc.lambda0 += w * lambda(c.Net, b0, n, h)
				nc.tau0 += w * tau(c.Net, b0, n, h)
			}
		}
	}
	return c, nil
}

// part is one node's slice of a barrier segment: its recorded accesses
// plus a side table resolving each access's block to the dense
// unique-block index.
type part struct {
	node int32
	run0 int64 // Run of the slice's first access
	accs []tempest.Access
	bi   []uint32
}

// globalSeg groups the nodes' slices of one barrier segment (a (phase,
// iteration) episode), ordered by node. Segments execute in recorded
// order; within one, the replay reconstructs the interleaving from
// compressed compute time plus replay-incurred stalls.
type globalSeg struct {
	minAt int64
	pi    int32 // phase index into c.phases
	parts []part
}

// blkState is one coarse block's coherence state during replay: a
// modified owner (M) or a sharer set (S), plus a grace set of nodes
// whose copies were revoked but whose recall has not yet landed (the
// protocols defer recalls by a full miss round trip, so a displaced
// holder's burst keeps hitting until the grace deadline). Initialized
// with the block's home as owner, mirroring the simulator's home-owned
// lines; the home rides along so an access reads one table, not two.
type blkState struct {
	owner      int32 // >= 0: that node holds the block modified
	home       int32 // home of the coarse block's first constituent
	sharers    uint64
	grace      uint64 // revoked holders still running on stale copies
	subs       uint64 // historical readers (pre-send subscribers)
	graceUntil int64
}

// psTouch is one (block, node) pre-send arrival count within a phase.
type psTouch struct {
	b     memory.Block
	node  int
	count int64
}

const offMask40 = uint64(1)<<40 - 1

// buildShifts derives the fault tables for every block-size shift by
// replaying the recorded access trace through a coherence automaton at
// each coarse granularity. The per-node traces merge into one global
// time order; at shift k accesses map onto B0<<k-sized blocks and a
// write-invalidate (or, for the update protocol, write-update) state
// machine counts the faults each access would take. This captures both
// directions the per-phase aggregate counts cannot: spatial coalescing
// (a node's sweep over neighboring constituents becomes one acquisition)
// and false-sharing amplification (interleaved writers bounce the coarse
// block and re-fault accesses that hit at the calibration size).
// Pre-send counts coarsen by per-node MAX — one pre-send covers the
// coarse block.
//
// The shifts share nothing mutable, so they replay concurrently, one
// worker per CPU up to MaxShift+1; each writes only its own c.shifts[k].
func (c *Calibration) buildShifts(m *rt.Machine) error {
	phaseIdx := make(map[int32]int32, len(c.phases))
	for pi := range c.phases {
		phaseIdx[int32(c.phases[pi].id)] = int32(pi)
	}
	segs, blocks, err := groupSegments(m, phaseIdx)
	if err != nil {
		return err
	}

	var pInt [MaxShift + 1]int64
	c.coarsenPresends(m, phaseIdx, uint(bits.TrailingZeros(uint(c.BlockSize))), c.Nodes, &pInt)

	workers := min(runtime.GOMAXPROCS(0), MaxShift+1)
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := newReplayer(c, m, segs, blocks)
			for k := int(next.Add(1)) - 1; k <= MaxShift; k = int(next.Add(1)) - 1 {
				r.replay(k, &c.shifts[k])
				c.shifts[k].presends = float64(pInt[k])
			}
		}()
	}
	wg.Wait()
	return nil
}

// groupSegments gathers the nodes' recorded segments into global barrier
// segments — the i-th occurrence of a (phase, iteration) pair on every
// node is one episode — ordered by their earliest recorded access, and
// resolves every access's block to a dense unique-block index: the
// replay runs once per shift over every access, so block identity
// resolves through one map pass here instead of a hash lookup per
// access per shift.
func groupSegments(m *rt.Machine, phaseIdx map[int32]int32) ([]*globalSeg, []uint64, error) {
	total := 0
	for n, node := range m.Nodes {
		if node.Rec == nil {
			return nil, nil, fmt.Errorf("predict: node %d has no communication record", n)
		}
		for i := range node.Rec.Segments {
			total += len(node.Rec.Segments[i].Accs)
		}
	}
	type instKey struct {
		phase, iter, occ int32
	}
	segMap := map[instKey]*globalSeg{}
	var segs []*globalSeg
	blockIdx := map[uint64]uint32{}
	var blocks []uint64
	slab := make([]uint32, total)
	for n, node := range m.Nodes {
		occ := map[[2]int32]int32{}
		for i := range node.Rec.Segments {
			s := &node.Rec.Segments[i]
			pk := [2]int32{s.Phase, s.Iter}
			key := instKey{s.Phase, s.Iter, occ[pk]}
			occ[pk]++
			gs := segMap[key]
			if gs == nil {
				pi, ok := phaseIdx[s.Phase]
				if !ok {
					pi = 0 // unprofiled phase: fold into (outside)
				}
				gs = &globalSeg{minAt: int64(s.At), pi: pi}
				segMap[key] = gs
				segs = append(segs, gs)
			} else if int64(s.At) < gs.minAt {
				gs.minAt = int64(s.At)
			}
			bi := slab[:len(s.Accs):len(s.Accs)]
			slab = slab[len(s.Accs):]
			for x := range s.Accs {
				blk := uint64(s.Accs[x].Block)
				u, ok := blockIdx[blk]
				if !ok {
					u = uint32(len(blocks))
					blockIdx[blk] = u
					blocks = append(blocks, blk)
				}
				bi[x] = u
			}
			gs.parts = append(gs.parts, part{node: int32(n), run0: int64(s.Accs[0].Run), accs: s.Accs, bi: bi})
		}
	}
	sort.SliceStable(segs, func(i, j int) bool {
		if segs[i].minAt != segs[j].minAt {
			return segs[i].minAt < segs[j].minAt
		}
		return segs[i].parts[0].node < segs[j].parts[0].node
	})
	return segs, blocks, nil
}

// heapEnt is one participant of the segment merge, keyed by its next
// access's reconstructed offset from the segment start.
type heapEnt struct {
	key int64 // compute offset plus the stalls replay has charged
	si  int32 // participant index; ties go to the lowest (= lowest node)
}

func (a heapEnt) less(b heapEnt) bool {
	return a.key < b.key || a.key == b.key && a.si < b.si
}

// siftDown restores the min-heap below h[i].
func siftDown(h []heapEnt, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		j := l
		if r := l + 1; r < len(h) && h[r].less(h[l]) {
			j = r
		}
		if !h[j].less(h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// replayer is one worker's scratch for shift replays: everything a
// replay mutates, reused across the shifts the worker takes.
type replayer struct {
	c      *Calibration
	m      *rt.Machine
	segs   []*globalSeg
	blocks []uint64

	coarse   []uint32 // unique block -> coarse index
	cmap     map[uint64]uint32
	state    []blkState // per coarse block
	clocks   []int64
	idx      []int
	rep      []uint32 // per participant: repeats of accs[idx] consumed
	stallAdj []int64
	heap     []heapEnt
	written  []uint32
	spanAcc  []int64 // per phase: sum of segment spans
	busyAcc  []int64 // per (phase,node): total busy
	fInt     []int64
	hInt     []int64
	qInt     []int64
}

func newReplayer(c *Calibration, m *rt.Machine, segs []*globalSeg, blocks []uint64) *replayer {
	n0, np := c.Nodes, len(c.phases)
	return &replayer{
		c: c, m: m, segs: segs, blocks: blocks,
		coarse:   make([]uint32, len(blocks)),
		state:    make([]blkState, 0, len(blocks)),
		cmap:     map[uint64]uint32{},
		clocks:   make([]int64, n0),
		idx:      make([]int, n0),
		rep:      make([]uint32, n0),
		stallAdj: make([]int64, n0),
		heap:     make([]heapEnt, 0, n0),
		spanAcc:  make([]int64, np),
		busyAcc:  make([]int64, np*n0),
		fInt:     make([]int64, np*n0),
		hInt:     make([]int64, np*n0*n0),
		qInt:     make([]int64, np*n0),
	}
}

// replay runs the coherence automaton at shift k and fills sc's fault,
// home, stall and imbalance tables.
func (r *replayer) replay(k int, sc *shiftCal) {
	c, m := r.c, r.m
	n0, np := c.Nodes, len(c.phases)
	sh := uint(bits.TrailingZeros(uint(c.BlockSize))) + uint(k)
	b1 := c.BlockSize << k
	update := c.Protocol == string(rt.ProtoUpdate)
	predictive := c.Protocol == string(rt.ProtoPredictive)

	// Map each unique calibration block onto its coarse group for this
	// shift and resolve the group's home once — the home of the coarse
	// block's first constituent in the calibration address space (the
	// home function is the application's; this is the closest stand-in
	// for the target geometry's assignment).
	coarse := r.coarse
	clear(r.cmap)
	state := r.state[:0]
	for u, blk := range r.blocks {
		// Block-padded regions re-pad per element at every block size —
		// coarsening can never merge their accesses, so they group by
		// element (and keep their calibration home). Other regions keep
		// a block-size-independent layout: coarsening shifts their
		// offsets.
		ck := blk&^offMask40 | (blk&offMask40)>>sh
		base := blk&^offMask40 | (blk&offMask40)>>sh<<sh
		if st := m.PaddedStride(int(blk >> 40)); st > 0 {
			ck = blk&^offMask40 | uint64(int64(blk&offMask40)/st)
			base = blk
		}
		ci, ok := r.cmap[ck]
		if !ok {
			ci = uint32(len(state))
			r.cmap[ck] = ci
			home := int32(m.AS.HomeOf(memory.Addr(base)))
			if update {
				state = append(state, blkState{owner: -1, home: home, sharers: uint64(1) << home})
			} else {
				state = append(state, blkState{owner: home, home: home})
			}
		}
		coarse[u] = ci
	}
	r.state = state
	clocks, idx, stallAdj := r.clocks, r.idx, r.stallAdj
	fInt, hInt, qInt := r.fInt, r.hInt, r.qInt
	clear(clocks)
	clear(r.spanAcc)
	clear(r.busyAcc)
	clear(fInt)
	clear(hInt)
	clear(qInt)
	var reads, writes int64

	var prevStart int64
	for _, gs := range r.segs {
		parts := gs.parts
		pi := int(gs.pi)
		// Barrier: the segment starts when its slowest participant
		// arrives, never before the previous segment.
		segStart := prevStart
		for _, p := range parts {
			if clocks[p.node] > segStart {
				segStart = clocks[p.node]
			}
		}
		prevStart = segStart
		// Every participant's first access sits at offset 0, so the
		// participants in index order already form a valid heap.
		h := r.heap[:0]
		for si := range parts {
			idx[si], r.rep[si], stallAdj[si] = 0, 0, 0
			h = append(h, heapEnt{si: int32(si)})
		}
		written := r.written[:0]
		// Merge the participants' compressed streams by reconstructed
		// time: compute offsets plus the stalls replay has charged. Only
		// the participant at the root changes its key, so each access
		// costs at most one sift-down.
		for len(h) > 0 {
			si := h[0].si
			key := h[0].key
			p := &parts[si]
			x := idx[si]
			// The others' keys hold still while si runs, so si keeps
			// the floor for as long as it stays below the runner-up (the
			// lesser of the root's children): its burst replays without
			// touching the heap.
			next := heapEnt{key: math.MaxInt64, si: math.MaxInt32}
			if len(h) > 1 {
				next = h[1]
				if len(h) > 2 && h[2].less(next) {
					next = h[2]
				}
			}
			rep := r.rep[si]
			for {
				bt := segStart + key
				a := &p.accs[x]
				write := a.Write

				ci := coarse[p.bi[x]]
				st := &state[ci]
				bit := uint64(1) << p.node
				inGrace := st.grace&bit != 0 && bt < st.graceUntil
				fault := false
				if update {
					// Write-update: copies are never invalidated; any node
					// faults once to join the sharers, then hits.
					if st.sharers&bit == 0 {
						fault = true
						st.sharers |= bit
					}
				} else if write {
					if st.owner != p.node && !inGrace {
						fault = true
						g := st.sharers
						if st.owner >= 0 {
							g |= uint64(1) << st.owner
						}
						st.grace = g &^ bit
						st.owner = p.node
						st.sharers = 0
						if predictive {
							st.subs |= g &^ bit
							written = append(written, ci)
						}
					}
				} else {
					if predictive {
						st.subs |= bit
					}
					if st.owner != p.node && st.sharers&bit == 0 && !inGrace {
						fault = true
						if st.owner >= 0 {
							st.grace |= uint64(1) << st.owner
							st.sharers = uint64(1) << st.owner
							st.owner = -1
						}
						st.sharers |= bit
					}
				}
				if fault {
					// The faulting node stalls a miss round trip, queued
					// behind any in-flight transfer of the same block
					// (coarse blocks concentrate contention at the home);
					// displaced holders keep hitting on stale copies until
					// the recall lands at roughly the same time.
					lam := int64(lambda(c.Net, b1, int(p.node), int(st.home)))
					stallAdj[si] += lam
					st.graceUntil = bt + lam
					slot := pi*n0 + int(p.node)
					fInt[slot]++
					hInt[slot*n0+int(st.home)]++
					qInt[slot] += lam
					if write {
						writes++
					} else {
						reads++
					}
					// A folded repeat issues after the charged stall and
					// may fault again, so it competes like any access.
					if rep < a.More {
						rep++
						key += lam
						if !(heapEnt{key: key, si: si}).less(next) {
							break
						}
						continue
					}
				}
				// A hit changes no state (a read's subscriber bit is
				// already set) and leaves si's key where it is, so si stays
				// at the floor and every remaining repeat of the entry hits
				// too: the whole folded run is consumed in this one step.
				rep = 0
				x++
				if x == len(p.accs) {
					break
				}
				key = int64(p.accs[x].Run) - p.run0 + stallAdj[si]
				if !(heapEnt{key: key, si: si}).less(next) {
					break
				}
			}
			idx[si] = x
			r.rep[si] = rep
			if x < len(p.accs) {
				h[0].key = key
			} else {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			siftDown(h, 0)
		}
		r.heap = h
		// Predictive protocol: at the barrier, newly written blocks are
		// pre-sent to their historical readers, whose next reads then
		// hit without faulting.
		for _, ci := range written {
			st := &state[ci]
			st.sharers |= st.subs
		}
		r.written = written
		// The segment's reconstructed span and per-node busy times. Per
		// phase the replay accumulates the critical path (sum of segment
		// spans, where a different node may be critical each segment)
		// and each node's total busy time; the gap between them is the
		// alternating-straggler slack that barriers absorb. Its ratio
		// across shifts drives slack prediction.
		var segSpan int64
		for si := range parts {
			p := &parts[si]
			busy := int64(p.accs[len(p.accs)-1].Run) - p.run0 + stallAdj[si]
			if end := segStart + busy; end > clocks[p.node] {
				clocks[p.node] = end
			}
			if busy > segSpan {
				segSpan = busy
			}
			r.busyAcc[pi*n0+int(p.node)] += busy
		}
		r.spanAcc[pi] += segSpan
	}

	sc.imb = make([]float64, np)
	for pi := 0; pi < np; pi++ {
		var maxBusy int64
		for n := 0; n < n0; n++ {
			if b := r.busyAcc[pi*n0+n]; b > maxBusy {
				maxBusy = b
			}
		}
		if sl := r.spanAcc[pi] - maxBusy; sl > 0 {
			sc.imb[pi] = float64(sl)
		}
	}
	sc.faults = toFloats(fInt)
	sc.faultHome = toFloats(hInt)
	sc.stallq = toFloats(qInt)
	sc.reads = float64(reads)
	sc.writes = float64(writes)
}

func toFloats(v []int64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// coarsenPresends folds the per-phase pre-send arrival counts into
// machine-wide totals per shift: within a coarse block a node's counts
// MAX across constituents, then sum over nodes and phases.
func (c *Calibration) coarsenPresends(m *rt.Machine, phaseIdx map[int32]int32, shift0 uint, n0 int, pInt *[MaxShift + 1]int64) {
	byPhase := map[int32][]psTouch{}
	for n, node := range m.Nodes {
		for id, blocks := range node.Rec.Presend {
			pi, ok := phaseIdx[int32(id)]
			if !ok {
				pi = 0
			}
			for b, cnt := range blocks {
				byPhase[pi] = append(byPhase[pi], psTouch{b: b, node: n, count: cnt})
			}
		}
	}
	maxP := make([]int64, n0)
	touched := make([]bool, n0)
	order := make([]int, 0, n0)
	for _, pres := range byPhase {
		sort.Slice(pres, func(i, j int) bool {
			if pres[i].b != pres[j].b {
				return pres[i].b < pres[j].b
			}
			return pres[i].node < pres[j].node
		})
		for k := 0; k <= MaxShift; k++ {
			sh := shift0 + uint(k)
			key := func(b memory.Block) uint64 {
				// Same element-vs-offset grouping as the fault replay:
				// padded regions never coalesce across elements.
				if st := m.PaddedStride(b.RegionID()); st > 0 {
					return uint64(b.RegionID())<<40 | uint64(b.Offset()/st)
				}
				return uint64(b.RegionID())<<40 | uint64(b.Offset())>>sh
			}
			for i := 0; i < len(pres); {
				j := i
				for j < len(pres) && key(pres[j].b) == key(pres[i].b) {
					j++
				}
				order = order[:0]
				for _, e := range pres[i:j] {
					if !touched[e.node] {
						touched[e.node] = true
						order = append(order, e.node)
					}
					if e.count > maxP[e.node] {
						maxP[e.node] = e.count
					}
				}
				for _, n := range order {
					pInt[k] += maxP[n]
					touched[n] = false
					maxP[n] = 0
				}
				i = j
			}
		}
	}
}
