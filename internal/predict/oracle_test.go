package predict

import (
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"presto/internal/apps/adaptive"
	"presto/internal/apps/barnes"
	"presto/internal/apps/water"
	"presto/internal/chaos"
	"presto/internal/memory"
	"presto/internal/rt"
	"presto/internal/sim"
	"presto/internal/tempest"
)

// oracleShifts is the reference replay: the same coherence automaton as
// buildShifts, written the straightforward way. The segment merge scans
// every participant for the least reconstructed time (strict <, so ties
// go to the lowest node) and the shifts run one after another. The
// production replay must match it bit for bit.
func oracleShifts(c *Calibration, m *rt.Machine) ([MaxShift + 1]shiftCal, error) {
	type segAccess struct {
		dt    int64
		bi    uint32
		pi    int32
		write bool
	}
	type nodeSeg struct {
		node int32
		accs []segAccess
	}
	type oseg struct {
		minAt int64
		nodes []nodeSeg
	}
	var out [MaxShift + 1]shiftCal
	n0 := c.Nodes
	shift0 := uint(bits.TrailingZeros(uint(c.BlockSize)))
	np := len(c.phases)
	phaseIdx := make(map[int32]int32, np)
	for pi := range c.phases {
		phaseIdx[int32(c.phases[pi].id)] = int32(pi)
	}

	type instKey struct{ phase, iter, occ int32 }
	segMap := map[instKey]*oseg{}
	var ordered []*oseg
	blockIdx := map[uint64]uint32{}
	var blocks []uint64
	for n, node := range m.Nodes {
		if node.Rec == nil {
			return out, fmt.Errorf("node %d has no communication record", n)
		}
		occ := map[[2]int32]int32{}
		for _, s := range node.Rec.Segments {
			pk := [2]int32{s.Phase, s.Iter}
			key := instKey{s.Phase, s.Iter, occ[pk]}
			occ[pk]++
			gs := segMap[key]
			if gs == nil {
				gs = &oseg{minAt: int64(s.At)}
				segMap[key] = gs
				ordered = append(ordered, gs)
			} else if int64(s.At) < gs.minAt {
				gs.minAt = int64(s.At)
			}
			pi, ok := phaseIdx[s.Phase]
			if !ok {
				pi = 0
			}
			ns := nodeSeg{node: int32(n)}
			for _, a := range s.Accs {
				bi, ok := blockIdx[uint64(a.Block)]
				if !ok {
					bi = uint32(len(blocks))
					blockIdx[uint64(a.Block)] = bi
					blocks = append(blocks, uint64(a.Block))
				}
				// Expand folded repeats: the oracle replays every access.
				for rep := uint32(0); rep <= a.More; rep++ {
					ns.accs = append(ns.accs, segAccess{dt: int64(a.Run) - int64(s.Accs[0].Run), bi: bi, pi: pi, write: a.Write})
				}
			}
			gs.nodes = append(gs.nodes, ns)
		}
	}
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].minAt != ordered[j].minAt {
			return ordered[i].minAt < ordered[j].minAt
		}
		return ordered[i].nodes[0].node < ordered[j].nodes[0].node
	})

	update := c.Protocol == string(rt.ProtoUpdate)
	predictive := c.Protocol == string(rt.ProtoPredictive)
	var pInt [MaxShift + 1]int64
	c.coarsenPresends(m, phaseIdx, shift0, n0, &pInt)

	for k := 0; k <= MaxShift; k++ {
		sh := shift0 + uint(k)
		b1 := c.BlockSize << k
		fInt := make([]int64, np*n0)
		hInt := make([]int64, np*n0*n0)
		qInt := make([]int64, np*n0)
		var rInt, wInt int64
		clocks := make([]int64, n0)
		idx := make([]int, n0)
		stallAdj := make([]int64, n0)
		spanAcc := make([]int64, np)
		busyAcc := make([]int64, np*n0)
		coarse := make([]uint32, len(blocks))
		var chome []int32
		cmap := map[uint64]uint32{}
		for u, blk := range blocks {
			ck := blk&^offMask40 | (blk&offMask40)>>sh
			base := blk&^offMask40 | (blk&offMask40)>>sh<<sh
			if st := m.PaddedStride(int(blk >> 40)); st > 0 {
				ck = blk&^offMask40 | uint64(int64(blk&offMask40)/st)
				base = blk
			}
			ci, ok := cmap[ck]
			if !ok {
				ci = uint32(len(chome))
				cmap[ck] = ci
				chome = append(chome, int32(m.AS.HomeOf(memory.Addr(base))))
			}
			coarse[u] = ci
		}
		state := make([]blkState, len(chome))
		for ci := range state {
			if update {
				state[ci] = blkState{owner: -1, sharers: uint64(1) << chome[ci]}
			} else {
				state[ci] = blkState{owner: chome[ci]}
			}
		}
		var prevStart int64
		for _, gs := range ordered {
			segStart := prevStart
			for _, ns := range gs.nodes {
				if clocks[ns.node] > segStart {
					segStart = clocks[ns.node]
				}
			}
			prevStart = segStart
			for si := range gs.nodes {
				idx[si], stallAdj[si] = 0, 0
			}
			var written []uint32
			for {
				best := -1
				var bt int64
				for si := range gs.nodes {
					if idx[si] >= len(gs.nodes[si].accs) {
						continue
					}
					t := segStart + gs.nodes[si].accs[idx[si]].dt + stallAdj[si]
					if best == -1 || t < bt {
						best, bt = si, t
					}
				}
				if best == -1 {
					break
				}
				ns := &gs.nodes[best]
				a := &ns.accs[idx[best]]
				idx[best]++

				ci := coarse[a.bi]
				home := chome[ci]
				st := &state[ci]
				bit := uint64(1) << ns.node
				inGrace := st.grace&bit != 0 && bt < st.graceUntil
				fault := false
				if update {
					if st.sharers&bit == 0 {
						fault = true
						st.sharers |= bit
					}
				} else if a.write {
					if st.owner != ns.node && !inGrace {
						fault = true
						g := st.sharers
						if st.owner >= 0 {
							g |= uint64(1) << st.owner
						}
						st.grace = g &^ bit
						st.owner = ns.node
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
					if st.owner != ns.node && st.sharers&bit == 0 && !inGrace {
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
					lam := int64(lambda(c.Net, b1, int(ns.node), int(home)))
					stallAdj[best] += lam
					st.graceUntil = bt + lam
					fInt[int(a.pi)*n0+int(ns.node)]++
					hInt[(int(a.pi)*n0+int(ns.node))*n0+int(home)]++
					qInt[int(a.pi)*n0+int(ns.node)] += lam
					if a.write {
						wInt++
					} else {
						rInt++
					}
				}
			}
			for _, ci := range written {
				st := &state[ci]
				st.sharers |= st.subs
			}
			var segSpan int64
			pi := int(gs.nodes[0].accs[0].pi)
			for si := range gs.nodes {
				ns := &gs.nodes[si]
				busy := ns.accs[len(ns.accs)-1].dt + stallAdj[si]
				if end := segStart + busy; end > clocks[ns.node] {
					clocks[ns.node] = end
				}
				if busy > segSpan {
					segSpan = busy
				}
				busyAcc[pi*n0+int(ns.node)] += busy
			}
			spanAcc[pi] += segSpan
		}
		sc := &out[k]
		sc.imb = make([]float64, np)
		for pi := 0; pi < np; pi++ {
			var maxBusy int64
			for n := 0; n < n0; n++ {
				if b := busyAcc[pi*n0+n]; b > maxBusy {
					maxBusy = b
				}
			}
			if sl := spanAcc[pi] - maxBusy; sl > 0 {
				sc.imb[pi] = float64(sl)
			}
		}
		sc.faults = make([]float64, np*n0)
		sc.faultHome = make([]float64, np*n0*n0)
		sc.stallq = make([]float64, np*n0)
		for i, v := range fInt {
			sc.faults[i] = float64(v)
		}
		for i, v := range hInt {
			sc.faultHome[i] = float64(v)
		}
		for i, v := range qInt {
			sc.stallq[i] = float64(v)
		}
		sc.reads = float64(rInt)
		sc.writes = float64(wInt)
		sc.presends = float64(pInt[k])
	}
	return out, nil
}

// checkOracle calibrates m at GOMAXPROCS 1, 2 and the process's own
// setting, and requires every shift table to equal the oracle's exactly.
func checkOracle(t *testing.T, name string, m *rt.Machine) {
	t.Helper()
	var want [MaxShift + 1]shiftCal
	procs := []int{1, 2}
	if own := runtime.GOMAXPROCS(0); own > 2 {
		procs = append(procs, own)
	}
	for i, p := range procs {
		prev := runtime.GOMAXPROCS(p)
		cal, err := Calibrate(m, name)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if i == 0 {
			if want, err = oracleShifts(cal, m); err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
		}
		for k := range want {
			if !reflect.DeepEqual(cal.shifts[k], want[k]) {
				t.Fatalf("%s GOMAXPROCS=%d: shift %d differs from the oracle replay", name, p, k)
			}
		}
	}
}

// TestReplayOracleApps runs the figure applications' quick-scale
// calibrations under every protocol and checks the replay against the
// oracle.
func TestReplayOracleApps(t *testing.T) {
	if testing.Short() {
		t.Skip("records nine quick-scale calibration simulations")
	}
	for _, proto := range []rt.ProtocolKind{rt.ProtoStache, rt.ProtoPredictive, rt.ProtoUpdate} {
		mc := rt.Config{Nodes: 16, BlockSize: 32, Protocol: proto, Profile: true, Record: true}
		runs := []struct {
			app string
			run func() (*rt.Machine, error)
		}{
			{"adaptive", func() (*rt.Machine, error) {
				r, err := adaptive.Run(adaptive.Config{Machine: mc, Size: 64, Iters: 30, RefineEvery: 4})
				if err != nil {
					return nil, err
				}
				return r.Machine, nil
			}},
			{"barnes", func() (*rt.Machine, error) {
				r, err := barnes.Run(barnes.Config{Machine: mc, Bodies: 2048})
				if err != nil {
					return nil, err
				}
				return r.Machine, nil
			}},
			{"water", func() (*rt.Machine, error) {
				r, err := water.Run(water.Config{Machine: mc, Molecules: 256, Steps: 8})
				if err != nil {
					return nil, err
				}
				return r.Machine, nil
			}},
		}
		for _, r := range runs {
			m, err := r.run()
			if err != nil {
				t.Fatalf("%s/%s: %v", r.app, proto, err)
			}
			checkOracle(t, r.app+"/"+string(proto), m)
		}
	}
}

// TestReplayOracleChaosBand checks the replay against the oracle over
// the predict chaos band's first 40 seeds.
func TestReplayOracleChaosBand(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		proto := rt.ProtoStache
		if seed%2 == 1 {
			proto = rt.ProtoPredictive
		}
		m, err := chaos.ExecuteCalibration(calSpec(seed), chaos.RunConfig{Protocol: proto})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkOracle(t, fmt.Sprintf("seed %d %s", seed, proto), m)
	}
}

// TestReplayTieLowestNode pins the merge's tie rule on hand-built
// traces over three one-block elements homed on nodes 0, 1 and 2.
//
// "start": nodes 0, 1 and 2 all write block 0 at the same reconstructed
// time. Lowest node first: node 0 hits as owner, node 1 faults and takes
// the block, node 2 faults and takes it from node 1, so node 1's later
// read faults again.
//
// "burst": node 1 is mid-burst when its next access ties with node 0's.
// Node 0 writes block 2 first, then node 1's read turns it shared, so
// node 1's late re-read hits. Letting node 1 run on through the tie
// would leave node 0 owning the block and node 1 re-faulting.
func TestReplayTieLowestNode(t *testing.T) {
	m := rt.New(rt.Config{Nodes: 3, BlockSize: 32, Protocol: rt.ProtoStache, Profile: true, Record: true})
	arr := m.NewArray1D("x", 3, 4, false)
	var blk [3]memory.Block
	for i := range blk {
		blk[i] = m.AS.BlockOf(arr.At(i, 0))
		if h := m.AS.HomeOf(blk[i]); h != i {
			t.Fatalf("block %d home %d, want %d", i, h, i)
		}
	}
	acc := func(run int, b int, write bool) tempest.Access {
		return tempest.Access{Run: sim.Time(run), Block: blk[b], Write: write}
	}
	node := func(accs ...tempest.Access) *tempest.Node {
		rec := &tempest.CommRecord{}
		if len(accs) > 0 {
			rec.Segments = []tempest.Segment{{Phase: 0, Iter: 0, At: 100, Accs: accs}}
		}
		return &tempest.Node{Rec: rec}
	}
	for _, tc := range []struct {
		name  string
		nodes []*tempest.Node
		want  []float64 // shift-0 faults of phase 0, per node
	}{
		{"start", []*tempest.Node{
			node(acc(100, 0, true)),
			node(acc(100, 0, true), acc(110, 0, false)),
			node(acc(100, 0, true)),
		}, []float64{0, 2, 1}},
		{"burst", []*tempest.Node{
			node(acc(100, 0, true), acc(105, 2, true)),
			node(acc(100, 1, true), acc(103, 1, true), acc(105, 2, false), acc(1105, 2, false)),
			node(),
		}, []float64{1, 1, 0}},
	} {
		m.Nodes = tc.nodes
		c := &Calibration{Protocol: string(rt.ProtoStache), Nodes: 3, BlockSize: 32, Net: m.Cfg.Net,
			phases: []phaseCal{{id: -1}, {id: 0}}}
		want, err := oracleShifts(c, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.buildShifts(m); err != nil {
			t.Fatal(err)
		}
		if got := c.shifts[0].faults[3:6]; !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s: phase 0 faults per node = %v, want %v (lowest node first on ties)", tc.name, got, tc.want)
		}
		if !reflect.DeepEqual(c.shifts, want) {
			t.Fatalf("%s: replay differs from the oracle", tc.name)
		}
	}
}

// TestCalibrateRejectsOver64Nodes: the replay's node masks are 64 bits
// wide, so a larger calibration machine must be refused, not replayed
// on wrapped masks.
func TestCalibrateRejectsOver64Nodes(t *testing.T) {
	m := rt.New(rt.Config{Nodes: MaxNodes + 1, BlockSize: 32, Profile: true, Record: true})
	_, err := Calibrate(m, "wide")
	if err == nil || !strings.Contains(err.Error(), "at most 64") {
		t.Fatalf("%d-node calibration: got %v, want the node-count error", MaxNodes+1, err)
	}
}

// TestReplayFoldedRepeatRefaults pins the replay of folded repeats on a
// hand-built trace over four one-block elements homed on nodes 0-3.
// Node 1 reads block 0 three times at one recorded time (one entry,
// More = 2). The first read faults; inside its stall window node 2 and
// then node 3 write the block, and node 3's write leaves node 1 out of
// the grace set. So the second read, issued after the stall, must
// re-fault, and the third hits. Consuming the folded run whole after
// the first fault would miss the second fault.
func TestReplayFoldedRepeatRefaults(t *testing.T) {
	m := rt.New(rt.Config{Nodes: 4, BlockSize: 32, Protocol: rt.ProtoStache, Profile: true, Record: true})
	arr := m.NewArray1D("x", 4, 4, false)
	var blk [4]memory.Block
	for i := range blk {
		blk[i] = m.AS.BlockOf(arr.At(i, 0))
		if h := m.AS.HomeOf(blk[i]); h != i {
			t.Fatalf("block %d home %d, want %d", i, h, i)
		}
	}
	node := func(accs ...tempest.Access) *tempest.Node {
		rec := &tempest.CommRecord{}
		if len(accs) > 0 {
			rec.Segments = []tempest.Segment{{Phase: 0, Iter: 0, At: 100, Accs: accs}}
		}
		return &tempest.Node{Rec: rec}
	}
	m.Nodes = []*tempest.Node{
		node(tempest.Access{Run: 100, Block: blk[0], More: 4}), // folded hits on its own block
		node(tempest.Access{Run: 100, Block: blk[0], More: 2}, tempest.Access{Run: 200, Block: blk[1], Write: true}),
		node(tempest.Access{Run: 102, Block: blk[0], Write: true}),
		node(tempest.Access{Run: 104, Block: blk[0], Write: true}),
	}
	c := &Calibration{Protocol: string(rt.ProtoStache), Nodes: 4, BlockSize: 32, Net: m.Cfg.Net,
		phases: []phaseCal{{id: -1}, {id: 0}}}
	want, err := oracleShifts(c, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.buildShifts(m); err != nil {
		t.Fatal(err)
	}
	if got, wantF := c.shifts[0].faults[4:8], []float64{0, 2, 1, 1}; !reflect.DeepEqual(got, wantF) {
		t.Fatalf("phase 0 faults per node = %v, want %v (the repeat after the stall re-faults)", got, wantF)
	}
	if !reflect.DeepEqual(c.shifts, want) {
		t.Fatal("replay differs from the oracle")
	}
}
