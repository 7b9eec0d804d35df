// Package network models the interconnect and software messaging costs of
// the simulated machine.
//
// The original system ran on a 32-node Thinking Machines CM-5 under
// Blizzard, a software fine-grain DSM whose remote data accesses averaged
// roughly 200 microseconds (paper §5.4). All costs here are software
// costs — active-message send/dispatch overheads, protocol-handler
// occupancy, and per-byte copy costs — plus a small wire latency, which is
// what dominated on that platform.
package network

import (
	"fmt"
	"strconv"
	"strings"

	"presto/internal/sim"
)

// Params describes one interconnect/software-messaging configuration.
// All times are virtual (sim.Time).
type Params struct {
	// SendOverhead is the sender-side CPU occupancy to compose and inject
	// one message (active-message send, protocol send handler).
	SendOverhead sim.Time
	// RecvOverhead is the receiver-side dispatch occupancy charged by the
	// protocol-handler loop for every message before handling it.
	RecvOverhead sim.Time
	// WireLatency is the network transit time for a minimal message.
	WireLatency sim.Time
	// PerByteSend is the sender-side copy cost per payload byte.
	PerByteSend sim.Time
	// PerByteWire is the network occupancy per payload byte.
	PerByteWire sim.Time
	// LocalDelay is the delivery delay for a node messaging itself (a
	// compute processor invoking its own protocol handler).
	LocalDelay sim.Time
	// LocalOverhead is the CPU occupancy for posting such a local message.
	LocalOverhead sim.Time
	// FaultDetect is the cost of detecting an access fault and vectoring
	// to the user-level handler (Tempest fine-grain access control).
	FaultDetect sim.Time
	// HeaderBytes is the fixed wire size of a protocol message.
	HeaderBytes int
	// BarrierLatency is the cost of one global barrier once all
	// participants have arrived (e.g. a log-depth combining tree).
	BarrierLatency sim.Time

	// JitterPct, when positive, perturbs per-message costs (send/recv
	// occupancy and transit delay) by up to ±JitterPct percent. The
	// perturbation is a pure hash of (JitterSeed, virtual time, nodes,
	// payload) — a function of simulated state only — so a jittered run
	// remains byte-identical across repeated runs. Transit delays are
	// clamped below at the pair's minimal latency, so jitter never lets a
	// message beat the interconnect's floor.
	JitterPct int
	// JitterSeed salts the jitter hash; distinct seeds explore distinct
	// message orderings.
	JitterSeed uint64

	// GroupSize, when >= 2, arranges the machine as a two-level cluster:
	// node IDs [k*GroupSize, (k+1)*GroupSize) share physical cluster node
	// k, and messages between them cross the intra-node fabric
	// (IntraWireLatency/IntraPerByteWire) instead of the top-level wire.
	// Software costs (send/recv overheads, per-byte copies) are charged
	// uniformly — only transit depends on the pair. 0 or 1 means a flat
	// machine and leaves every existing preset byte-identical.
	GroupSize int
	// Groups pins the expected group count when positive (the
	// cluster:<nodes>x<cores> preset sets it); rt.Machine.Run validates
	// the simulated node count against Groups*GroupSize.
	Groups int
	// IntraWireLatency is the transit time of a minimal intra-group
	// message (required positive when GroupSize >= 2).
	IntraWireLatency sim.Time
	// IntraPerByteWire is the intra-group fabric occupancy per byte.
	IntraPerByteWire sim.Time

	// Hier lists intermediate fabric levels between the intra-group
	// fabric and the top-level network, innermost-first (see FabricLevel).
	// Empty for flat machines and classic two-level clusters; the
	// cluster:<a>x<b>x<c> and fattree:<levels> presets populate it.
	Hier []FabricLevel

	// MeshW/MeshH, when both positive, arrange a flat machine as a 2D
	// mesh: node i sits at (i mod MeshW, i div MeshW) and transit grows
	// by HopLatency per Manhattan hop beyond the first. Mutually
	// exclusive with GroupSize >= 2.
	MeshW, MeshH int
	// HopLatency is the extra transit per mesh hop beyond the first.
	HopLatency sim.Time
}

// Validate rejects configurations that would panic or hang downstream:
// non-positive latencies/occupancies (the simulator requires every
// message to advance virtual time), negative per-byte costs, and a
// degenerate minimum latency (MinLatency must be positive: it sizes the
// kernel's timing-wheel buckets).
func (p *Params) Validate() error {
	pos := []struct {
		name string
		v    sim.Time
	}{
		{"SendOverhead", p.SendOverhead},
		{"RecvOverhead", p.RecvOverhead},
		{"WireLatency", p.WireLatency},
		{"LocalDelay", p.LocalDelay},
		{"LocalOverhead", p.LocalOverhead},
		{"FaultDetect", p.FaultDetect},
		{"BarrierLatency", p.BarrierLatency},
	}
	for _, f := range pos {
		if f.v <= 0 {
			return fmt.Errorf("network: %s = %v, must be positive", f.name, f.v)
		}
	}
	if p.PerByteSend < 0 || p.PerByteWire < 0 {
		return fmt.Errorf("network: per-byte costs must be non-negative (send %v, wire %v)",
			p.PerByteSend, p.PerByteWire)
	}
	if p.HeaderBytes < 0 {
		return fmt.Errorf("network: HeaderBytes = %d, must be non-negative", p.HeaderBytes)
	}
	if p.JitterPct < 0 || p.JitterPct >= 100 {
		return fmt.Errorf("network: JitterPct = %d, must be in [0,100)", p.JitterPct)
	}
	if p.GroupSize < 0 {
		return fmt.Errorf("network: GroupSize = %d, must be non-negative", p.GroupSize)
	}
	if p.Groups < 0 {
		return fmt.Errorf("network: Groups = %d, must be non-negative", p.Groups)
	}
	if p.Clustered() {
		if p.IntraWireLatency <= 0 {
			return fmt.Errorf("network: IntraWireLatency = %v, must be positive on a clustered machine",
				p.IntraWireLatency)
		}
		if p.IntraPerByteWire < 0 {
			return fmt.Errorf("network: IntraPerByteWire = %v, must be non-negative", p.IntraPerByteWire)
		}
	} else if p.Groups > 1 {
		return fmt.Errorf("network: Groups = %d needs GroupSize >= 2 (got %d)", p.Groups, p.GroupSize)
	}
	if err := p.validateTopology(); err != nil {
		return err
	}
	if p.MinLatency() <= 0 {
		return fmt.Errorf("network: MinLatency() = %v, must be positive", p.MinLatency())
	}
	return nil
}

// mustValid asserts a preset validates (a broken preset is a programming
// error, caught at first use rather than as a downstream panic).
func mustValid(p *Params) *Params {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("network: invalid preset: %v", err))
	}
	return p
}

// CM5 returns parameters calibrated to Blizzard on the CM-5: a simple
// two-hop read miss costs ~110us and a three-hop (recall) miss ~190us,
// bracketing the paper's reported 200us average remote access latency.
func CM5() *Params {
	return mustValid(&Params{
		SendOverhead:   20 * sim.Microsecond,
		RecvOverhead:   25 * sim.Microsecond,
		WireLatency:    6 * sim.Microsecond,
		PerByteSend:    25 * sim.Nanosecond, // ~40 MB/s copy
		PerByteWire:    33 * sim.Nanosecond, // ~30 MB/s effective wire
		LocalDelay:     2 * sim.Microsecond,
		LocalOverhead:  3 * sim.Microsecond,
		FaultDetect:    5 * sim.Microsecond,
		HeaderBytes:    16,
		BarrierLatency: 40 * sim.Microsecond,
	})
}

// NOW returns parameters for a mid-90s network of workstations without
// hardware shared-memory support (paper §5.4: the predictive protocol is
// "beneficial on ... networks of workstations"): higher per-message
// software costs and wire latency than the CM-5.
func NOW() *Params {
	return mustValid(&Params{
		SendOverhead:   60 * sim.Microsecond,
		RecvOverhead:   70 * sim.Microsecond,
		WireLatency:    80 * sim.Microsecond,
		PerByteSend:    50 * sim.Nanosecond,
		PerByteWire:    100 * sim.Nanosecond, // ~10 MB/s Ethernet-class
		LocalDelay:     2 * sim.Microsecond,
		LocalOverhead:  3 * sim.Microsecond,
		FaultDetect:    8 * sim.Microsecond,
		HeaderBytes:    32,
		BarrierLatency: 400 * sim.Microsecond,
	})
}

// HardwareDSM returns parameters for a hardware-assisted DSM (paper §5.4:
// "the tradeoff is likely to be different for shared-memory
// multiprocessors or hardware-assisted DSMs, which have smaller remote
// access latencies"): protocol handling in hardware, microsecond-scale
// misses.
func HardwareDSM() *Params {
	return mustValid(&Params{
		SendOverhead:   400 * sim.Nanosecond,
		RecvOverhead:   500 * sim.Nanosecond,
		WireLatency:    600 * sim.Nanosecond,
		PerByteSend:    2 * sim.Nanosecond,
		PerByteWire:    3 * sim.Nanosecond,
		LocalDelay:     200 * sim.Nanosecond,
		LocalOverhead:  100 * sim.Nanosecond,
		FaultDetect:    300 * sim.Nanosecond,
		HeaderBytes:    16,
		BarrierLatency: 5 * sim.Microsecond,
	})
}

// Cluster returns a two-level machine: `groups` cluster nodes of `cores`
// simulated nodes each. Nodes sharing a cluster node communicate over a
// hardware-DSM-class intra-node fabric; distinct cluster nodes over the
// CM-5-class top-level network. Software messaging costs stay CM-5-like
// regardless of destination (the messaging layer is the same code path) —
// only the wire differs: a cross-group message pays the top-level
// transit delay, an intra-group one the far smaller intra-node fabric.
func Cluster(groups, cores int) (*Params, error) {
	if groups < 1 || cores < 2 {
		return nil, fmt.Errorf("network: cluster needs >= 1 groups of >= 2 cores (got %dx%d)", groups, cores)
	}
	if groups*cores > MaxNodes {
		return nil, fmt.Errorf("network: cluster %dx%d exceeds %d nodes", groups, cores, MaxNodes)
	}
	p := *CM5()
	p.Groups = groups
	p.GroupSize = cores
	p.IntraWireLatency = 600 * sim.Nanosecond
	p.IntraPerByteWire = 3 * sim.Nanosecond
	return mustValid(&p), nil
}

// Preset returns the named parameter preset — the shared vocabulary of
// the -net command-line flags and the chaos derivation. Besides the fixed
// presets it accepts the parameterized topology forms (Grammars lists
// them all): cluster:<groups>x<cores> (e.g. cluster:4x8 = 32 simulated
// nodes on 4 cluster nodes), deeper cluster:<a>x<b>x<c> hierarchies,
// mesh:<w>x<h> 2D meshes and fattree:<levels> 4-ary fat trees.
func Preset(name string) (*Params, error) {
	switch name {
	case "cm5":
		return CM5(), nil
	case "now":
		return NOW(), nil
	case "hwdsm":
		return HardwareDSM(), nil
	}
	if shape, ok := strings.CutPrefix(name, "cluster:"); ok {
		dims, ok := parseDims(shape)
		if !ok || len(dims) < 2 {
			return nil, fmt.Errorf("network: malformed cluster preset %q (want cluster:<groups>x<cores> or cluster:<groups>x<subgroups>x<cores>)", name)
		}
		if len(dims) == 2 {
			return Cluster(dims[0], dims[1])
		}
		return ClusterLevels(dims)
	}
	if shape, ok := strings.CutPrefix(name, "mesh:"); ok {
		dims, ok := parseDims(shape)
		if !ok || len(dims) != 2 {
			return nil, fmt.Errorf("network: malformed mesh preset %q (want mesh:<w>x<h>)", name)
		}
		return Mesh(dims[0], dims[1])
	}
	if lvl, ok := strings.CutPrefix(name, "fattree:"); ok {
		l, err := strconv.Atoi(lvl)
		if err != nil {
			return nil, fmt.Errorf("network: malformed fattree preset %q (want fattree:<levels>)", name)
		}
		return FatTree(l)
	}
	return nil, fmt.Errorf("network: unknown preset %q (want %s)", name, Grammars())
}

// SendCost returns the sender CPU occupancy for a message with the given
// payload size.
func (p *Params) SendCost(payload int) sim.Time {
	return p.SendOverhead + sim.Time(payload)*p.PerByteSend
}

// TransitDelay returns the in-flight delay for a message with the given
// payload size (header included) over the top-level network.
func (p *Params) TransitDelay(payload int) sim.Time {
	return p.WireLatency + sim.Time(payload+p.HeaderBytes)*p.PerByteWire
}

// intraTransit is the in-flight delay over the intra-group fabric.
func (p *Params) intraTransit(payload int) sim.Time {
	return p.IntraWireLatency + sim.Time(payload+p.HeaderBytes)*p.IntraPerByteWire
}

// Clustered reports whether the machine is a two-level cluster (nodes
// grouped onto shared cluster nodes with a distinct intra fabric).
func (p *Params) Clustered() bool { return p.GroupSize >= 2 }

// GroupOf returns the cluster node hosting a simulated node (the node's
// own ID on a flat machine).
func (p *Params) GroupOf(node int) int {
	if !p.Clustered() {
		return node
	}
	return node / p.GroupSize
}

// SameGroup reports whether two nodes share a cluster node.
func (p *Params) SameGroup(i, j int) bool {
	return p.Clustered() && i/p.GroupSize == j/p.GroupSize
}

// TransitDelayPair returns the in-flight delay between a specific pair
// of nodes: the innermost fabric containing both on a hierarchical
// machine (intra-group, then each Hier level outward, then the
// top-level network), or the Manhattan-distance-scaled transit on a
// mesh. Identical to TransitDelay on flat machines.
func (p *Params) TransitDelayPair(payload, src, dst int) sim.Time {
	if p.SameGroup(src, dst) {
		return p.intraTransit(payload)
	}
	for _, l := range p.Hier {
		if src/l.Span == dst/l.Span {
			return p.hierTransit(l, payload)
		}
	}
	if p.Meshed() {
		d := p.TransitDelay(payload)
		if h := p.meshHops(src, dst); h > 1 {
			d += sim.Time(h-1) * p.HopLatency
		}
		return d
	}
	return p.TransitDelay(payload)
}

// PairMinLatency returns the smallest virtual-time gap between an action
// on node i and its earliest possible effect on node j: the lesser of the
// pair's minimal transit delay (empty payload) and the barrier release
// cost (barriers synchronize all nodes regardless of topology). Across
// groups of a hierarchical machine it is the top-level transit, not the
// global minimum: the pair's floor in the timing model.
func (p *Params) PairMinLatency(i, j int) sim.Time {
	min := p.TransitDelayPair(0, i, j)
	if p.BarrierLatency < min {
		min = p.BarrierLatency
	}
	return min
}

// MinLatency returns the smallest virtual-time gap between an action on
// one node and its earliest possible effect on another node, over all
// pairs: the lesser of the minimal message transit delay (empty payload,
// header only; the intra-group fabric when clustered) and the barrier
// release cost: within a span narrower than MinLatency, nodes cannot
// affect each other. PairMinLatency refines this bound per pair.
func (p *Params) MinLatency() sim.Time {
	min := p.TransitDelay(0)
	if p.Clustered() {
		if d := p.intraTransit(0); d < min {
			min = d
		}
	}
	for _, l := range p.Hier {
		if d := p.hierTransit(l, 0); d < min {
			min = d
		}
	}
	if p.BarrierLatency < min {
		min = p.BarrierLatency
	}
	return min
}

// RemoteReadMiss2Hop estimates the latency of a simple two-hop read miss
// for a block of the given size. Used for calibration tests and docs, not
// by the protocols themselves.
func (p *Params) RemoteReadMiss2Hop(block int) sim.Time {
	req := p.FaultDetect + p.SendCost(0) + p.TransitDelay(0) + p.RecvOverhead
	rep := p.SendCost(block) + p.TransitDelay(block) + p.RecvOverhead
	return req + rep
}
