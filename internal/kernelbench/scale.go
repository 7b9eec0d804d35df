// Kilonode-scale benchmarks: the hot paths the 1024-node tentpole
// leans on — the node-leader aggregation flush, the sized timing wheel
// under a 1024-proc event population, the batched barrier release and a
// write-update push to 1023 sharers —
// plus the cross-group message-reduction guard that pins the paper's
// aggregation claim as a counter ratio rather than a wall-clock bound.
package kernelbench

import (
	"fmt"
	"testing"

	"presto/internal/memory"
	"presto/internal/network"
	"presto/internal/rt"
	"presto/internal/sim"
	"presto/internal/tempest"
	"presto/internal/update"
)

// scaleCases returns the kilonode workloads in stable order.
func scaleCases() []Case {
	return []Case{
		{"agg_flush64", benchAggFlush64, true},
		{"wheel1024_burst", benchWheel1024Burst, false},
		{"barrier1024_release", benchBarrier1024, true},
		{"update_push1024", benchUpdatePush1024, true},
	}
}

// benchProto satisfies tempest.Protocol for substrate-level benchmarks:
// deliveries are absorbed, faults resolve locally.
type benchProto struct{}

func (benchProto) Name() string         { return "bench" }
func (benchProto) Init(n *tempest.Node) {}
func (benchProto) OnFault(n *tempest.Node, b memory.Block, w bool) bool {
	n.Store.Ensure(b).Tag = memory.ReadWrite
	return true
}
func (benchProto) Handle(n *tempest.Node, d sim.Delivery) {}

// benchAggFlush64 drives the aggregation buffer through its occupancy
// flush in steady state: node 0 posts 8-entry cross-group bulks until
// the destination group's buffer hits the 64-entry cap, the flush
// coalesces them into one MsgAgg, and the group leader redistributes.
// One op is one coalesced bulk entry end to end (buffer, flush,
// leader hop, redistribution). Guarded: the buffering layer recycles
// its part slices through a pool, so the per-entry path may not
// allocate (the occasional message boxing amortizes far below one
// allocation per entry).
func benchAggFlush64(b *testing.B) {
	const (
		nodes      = 4
		entryBulk  = 8 // entries per posted bulk
		roundPosts = 8 // bulks per flush round (8 x 8 = occupancy cap)
		drain      = 500 * sim.Microsecond
	)
	b.ReportAllocs()
	net, err := network.Preset("cluster:2x2")
	if err != nil {
		b.Fatal(err)
	}
	k := sim.NewKernel()
	as := memory.NewAddressSpace(nodes, 32)
	r := as.NewRegion("agg", 1024, func(i int64) int { return int(i % nodes) })
	all := make([]*tempest.Node, nodes)
	for i := 0; i < nodes; i++ {
		all[i] = tempest.NewNode(i, as, net, benchProto{})
	}
	for _, n := range all {
		n.Peers = all
	}
	for _, n := range all {
		n := n
		n.ProtoProc = k.Spawn("proto", n.ProtocolLoop)
		n.ProtoProc.SetDaemon(true)
	}
	all[0].EnableAggregation(false)
	entries := make([]tempest.BulkEntry, entryBulk)
	for i := range entries {
		entries[i] = tempest.BulkEntry{Block: r.BlockAt(int64(i)), Data: make([]byte, 32)}
	}
	bulk := tempest.MsgBulk{Bulk: &tempest.Bulk{Entries: entries}}
	n := b.N
	k.Spawn("driver", func(p *sim.Proc) {
		sent := 0
		for sent < n {
			// One flush round: alternate destinations inside the remote
			// group so the aggregate carries several distinct parts.
			for j := 0; j < roundPosts; j++ {
				all[0].PostBulk(p, all[2+j%2], bulk)
			}
			sent += roundPosts * entryBulk
			p.Sleep(drain) // let the aggregate deliver and redistribute
		}
		all[0].FlushAgg(p)
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	if all[0].Stats.AggMsgs == 0 || all[0].AggPending() != 0 {
		b.Fatalf("aggregation not exercised: %d aggs, %d pending",
			all[0].Stats.AggMsgs, all[0].AggPending())
	}
}

// benchUpdatePush1024 is a write-update push on a 1024-node machine: the
// home of one block pushes it to its 1023 recorded sharers, and every
// sharer's protocol processor installs the copy. One op is one push end
// to end (destination grouping, 1023 bulk messages with their payload
// copies, delivery and install). Guarded: Push's grouping scratch, the
// bulk bodies and their payload slabs are all recycled, so a push in
// steady state allocates nothing — and its cost follows the sharers it
// touches, not a per-call table sized to the machine.
func benchUpdatePush1024(b *testing.B) {
	const (
		nodes = 1024
		drain = 100 * sim.Microsecond // every delivery lands within this
		warm  = 32                    // untimed pushes before steady state
	)
	b.ReportAllocs()
	net := network.CM5()
	k := sim.NewKernel()
	k.UseSchedulerSized(sim.SchedWheel, net.MinLatency(), 2*nodes)
	as := memory.NewAddressSpace(nodes, 32)
	r := as.NewRegion("push", 32, func(int64) int { return 0 })
	u := update.New()
	all := make([]*tempest.Node, nodes)
	for i := range all {
		all[i] = tempest.NewNode(i, as, net, u)
	}
	for _, n := range all {
		n.Peers = all
		u.Init(n)
		n.ProtoProc = k.Spawn(fmt.Sprintf("proto%d", n.ID), n.ProtocolLoop)
		n.ProtoProc.SetDaemon(true)
	}
	blk := r.BlockAt(0)
	e := all[0].Dir.Entry(blk)
	for i := 1; i < nodes; i++ {
		e.Sharers.Add(i)
	}
	blocks := []memory.Block{blk}
	home, n := all[0], b.N
	home.Compute = k.Spawn("push", func(p *sim.Proc) {
		// The first push materializes the sharers' lines and grows their
		// mailboxes; the next few fill the body pool's per-CPU rings and
		// grow the recycled payload slabs. The timed pushes reuse all of
		// it. The timer stops before the run ends, so releasing the
		// machine's goroutines is not charged to the pushes either.
		for i := 0; i < warm; i++ {
			u.Push(home, p, blocks)
			p.Sleep(drain)
		}
		b.ResetTimer()
		for i := 0; i < n; i++ {
			u.Push(home, p, blocks)
			p.Sleep(drain)
		}
		b.StopTimer()
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	if got, want := home.Stats.BulkMsgs, int64((n+warm)*(nodes-1)); got != want {
		b.Fatalf("%d bulk messages, want %d", got, want)
	}
	if all[nodes-1].Store.Tag(blk) != memory.ReadOnly {
		b.Fatal("last sharer holds no read-only copy after the push")
	}
}

// benchWheel1024Burst holds a 1024-proc event population on a wheel
// sized for it (2048 buckets, the rt sizing rule of 2x the node count):
// every proc sleeps on a scattered schedule spanning past the wheel
// horizon, so pushes exercise the near buckets, the overflow heap and
// its migration path at kilonode occupancy. One op is one full run of
// the 1024-proc workload.
func benchWheel1024Burst(b *testing.B) {
	const (
		procs  = 1024
		rounds = 3
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		k.UseSchedulerSized(sim.SchedWheel, sim.Microsecond, 2*procs)
		for j := 0; j < procs; j++ {
			j := j
			k.Spawn(fmt.Sprintf("t%d", j), func(p *sim.Proc) {
				for r := 0; r < rounds; r++ {
					// 1µs..~1.5ms spread: mostly near-wheel, the long
					// tail lands in overflow (wheel horizon 2048µs).
					d := sim.Time(1+(j*37+r*101)%1500) * sim.Microsecond
					p.Sleep(d)
				}
			})
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBarrier1024 measures the batched barrier release at kilonode
// width: 1024 procs arrive and the release wakes them in one pass. One
// op is one full barrier episode (1024 arrivals plus the release).
// Guarded: the arrive/release path may not allocate in steady state.
func benchBarrier1024(b *testing.B) {
	const procs = 1024
	b.ReportAllocs()
	k := sim.NewKernel()
	k.UseSchedulerSized(sim.SchedWheel, sim.Microsecond, 2*procs)
	bar := k.NewBarrier(procs, 10*sim.Microsecond)
	n := b.N
	for i := 0; i < procs; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			for j := 0; j < n; j++ {
				p.Advance(sim.Microsecond)
				p.Wait(bar)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// MsgRatioGuard pins a message-count reduction as a counter ratio
// between two full runtime runs: Eval performs both runs and returns
// the numerator and denominator counters (plus a human-readable
// detail); paperbench -kernel-bench fails the run when num/den < Min
// or when Eval itself reports an error (e.g. the runs' final memory
// diverged, which would make the ratio meaningless).
type MsgRatioGuard struct {
	Name string
	Num  string // numerator label in reports
	Den  string // denominator label in reports
	Min  float64
	Eval func() (num, den float64, detail string, err error)
}

// MsgRatioGuards returns the counter-ratio bounds.
//
// agg_crossgroup_reduction is the tentpole's headline claim: on a
// clustered machine whose steady-state traffic is bulk data — the
// write-update push pattern, where each home multicasts its block to
// every remote consumer each iteration — node-leader aggregation must
// cut cross-group message traffic at least 4x while leaving final
// memory byte-identical and conserving every coalesced entry. The
// invalidation-based protocols bound lower on the same pattern: their
// per-sharer MsgInval/ack control traffic is not coalescible, so bulk
// grants are the minority of their cross traffic.
func MsgRatioGuards() []MsgRatioGuard {
	return []MsgRatioGuard{{
		Name: "agg_crossgroup_reduction",
		Num:  "crossmsgs_unaggregated",
		Den:  "crossmsgs_aggregated",
		Min:  4.0,
		Eval: evalAggCrossGroup,
	}}
}

// evalAggCrossGroup runs the push workload on a 32-node cluster
// (4 groups of 8) with aggregation off and on.
func evalAggCrossGroup() (float64, float64, string, error) {
	const iters = 16
	net, err := network.Preset("cluster:4x8")
	if err != nil {
		return 0, 0, "", err
	}
	cfg := rt.Config{Nodes: 32, BlockSize: 32, Net: net, Protocol: rt.ProtoUpdate}
	run := func(agg bool) (*rt.Machine, error) {
		c := cfg
		c.Aggregate = agg
		m := rt.New(c)
		if err := m.Run(aggPushProg(m, iters)); err != nil {
			return nil, err
		}
		return m, nil
	}
	off, err := run(false)
	if err != nil {
		return 0, 0, "", err
	}
	on, err := run(true)
	if err != nil {
		return 0, 0, "", err
	}
	if hOff, hOn := off.HashMemory(), on.HashMemory(); hOff != hOn {
		return 0, 0, "", fmt.Errorf("aggregation changed final memory: %#x vs %#x", hOff, hOn)
	}
	cOn := on.Counters()
	if cOn.AggMsgs == 0 {
		return 0, 0, "", fmt.Errorf("aggregated run sent no aggregates")
	}
	if cOn.AggEntriesOut != cOn.AggEntriesIn {
		return 0, 0, "", fmt.Errorf("aggregation conservation broken: %d out, %d in",
			cOn.AggEntriesOut, cOn.AggEntriesIn)
	}
	cOff := off.Counters()
	detail := fmt.Sprintf("cluster:4x8 push x%d: cross %d -> %d (aggs %d)",
		iters, cOff.CrossMsgs, cOn.CrossMsgs, cOn.AggMsgs)
	return float64(cOff.CrossMsgs), float64(cOn.CrossMsgs), detail, nil
}

// aggPushProg is the write-update steady state: one warm-up round
// registers every node as a sharer of every slot, then each iteration
// has every owner update its slot and multicast it (PushUpdates) to the
// 31 consumers — 24 of them across group boundaries, so each home owes
// three remote groups a bulk every iteration. Consumer reads hit the
// pushed local copies and generate no traffic of their own.
func aggPushProg(m *rt.Machine, iters int) rt.Program {
	n := m.Cfg.Nodes
	arr := m.NewArray1D("push", n, 1, true)
	return func(w *rt.Worker) {
		w.WriteF64(arr.At(w.ID, 0), float64(w.ID))
		w.Barrier()
		for i := 0; i < n; i++ {
			_ = w.ReadF64(arr.At(i, 0)) // register as a sharer everywhere
		}
		w.Barrier()
		own := []memory.Addr{arr.At(w.ID, 0)}
		for it := 0; it < iters; it++ {
			w.Phase(1, func() {
				w.WriteF64(own[0], float64(w.ID+it))
				w.PushUpdates(own)
				w.Compute(5 * sim.Microsecond)
			})
			w.Phase(2, func() {
				s := 0.0
				for i := 0; i < n; i++ {
					s += w.ReadF64(arr.At(i, 0))
				}
				_ = s
				w.Compute(5 * sim.Microsecond)
			})
		}
	}
}
