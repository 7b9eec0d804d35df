package network

import (
	"fmt"
	"strconv"
	"strings"

	"presto/internal/sim"
)

// This file grows the interconnect model beyond the flat presets and the
// two-level cluster: generalized multi-level cluster hierarchies, 2D
// meshes, and fat trees, all expressed through the same pair-aware
// primitives (TransitDelayPair / PairMinLatency) the message path and
// the jitter clamp already consume. A topology only changes *transit*
// costs between specific node pairs; software messaging costs stay
// uniform, exactly as in the two-level cluster.

// MaxNodes caps every parameterized topology preset. 4096 bounds the
// per-node tables and metrics registries; the scaling arc targets 1024.
const MaxNodes = 4096

// FabricLevel is one intermediate level of a hierarchical interconnect:
// node IDs i and j communicate over the innermost level whose Span-sized
// block contains both. Levels are listed innermost-first with strictly
// increasing spans; each span must be a multiple of the previous one
// (and of GroupSize). Pairs that no level covers use the top-level
// network (WireLatency/PerByteWire).
type FabricLevel struct {
	// Span is the number of consecutive node IDs per unit at this level.
	Span int
	// Wire is the transit time of a minimal message over this fabric.
	Wire sim.Time
	// PerByte is this fabric's occupancy per payload byte.
	PerByte sim.Time
}

// Grammars enumerates every legal -net / Preset spelling. Error messages
// and CLI help text quote it so the full vocabulary is always
// discoverable from a typo.
func Grammars() string {
	return "cm5, now, hwdsm, cluster:<groups>x<cores>, cluster:<groups>x<subgroups>x<cores>, mesh:<w>x<h> or fattree:<levels>"
}

// hierTransit is the in-flight delay over one intermediate fabric level.
func (p *Params) hierTransit(l FabricLevel, payload int) sim.Time {
	return l.Wire + sim.Time(payload+p.HeaderBytes)*l.PerByte
}

// Meshed reports whether the machine is arranged as a 2D mesh (a flat
// machine whose transit grows with Manhattan distance).
func (p *Params) Meshed() bool { return p.MeshW >= 1 && p.MeshH >= 1 && p.MeshW*p.MeshH >= 2 }

// meshHops returns the Manhattan distance between two mesh nodes.
func (p *Params) meshHops(i, j int) int {
	xi, yi := i%p.MeshW, i/p.MeshW
	xj, yj := j%p.MeshW, j/p.MeshW
	dx, dy := xi-xj, yi-yj
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// ExpectNodes returns the node count a topology preset pins, or 0 when
// any count is legal (the flat presets). rt.Machine.Run validates the
// simulated node count against it.
func (p *Params) ExpectNodes() int {
	if p.Meshed() {
		return p.MeshW * p.MeshH
	}
	if p.Clustered() && p.Groups > 0 {
		return p.Groups * p.GroupSize
	}
	return 0
}

// validateTopology extends Validate with the mesh and multi-level
// hierarchy invariants.
func (p *Params) validateTopology() error {
	if (p.MeshW != 0) != (p.MeshH != 0) || p.MeshW < 0 || p.MeshH < 0 {
		return fmt.Errorf("network: mesh dimensions %dx%d, want both positive or both zero", p.MeshW, p.MeshH)
	}
	if p.Meshed() {
		if p.Clustered() {
			return fmt.Errorf("network: a machine cannot be both a mesh and a cluster (MeshW/MeshH with GroupSize %d)", p.GroupSize)
		}
		if p.HopLatency < 0 {
			return fmt.Errorf("network: HopLatency = %v, must be non-negative", p.HopLatency)
		}
		if p.MeshW*p.MeshH > MaxNodes {
			return fmt.Errorf("network: mesh %dx%d exceeds %d nodes", p.MeshW, p.MeshH, MaxNodes)
		}
	}
	if len(p.Hier) > 0 && !p.Clustered() {
		return fmt.Errorf("network: Hier levels need GroupSize >= 2 (got %d)", p.GroupSize)
	}
	prev := p.GroupSize
	for i, l := range p.Hier {
		if l.Span <= prev || prev == 0 || l.Span%prev != 0 {
			return fmt.Errorf("network: Hier[%d].Span = %d, must be a strict multiple of the previous span %d", i, l.Span, prev)
		}
		if l.Wire <= 0 {
			return fmt.Errorf("network: Hier[%d].Wire = %v, must be positive", i, l.Wire)
		}
		if l.PerByte < 0 {
			return fmt.Errorf("network: Hier[%d].PerByte = %v, must be non-negative", i, l.PerByte)
		}
		prev = l.Span
	}
	if n := p.ExpectNodes(); n != 0 && len(p.Hier) > 0 && n%prev != 0 {
		return fmt.Errorf("network: outermost Hier span %d does not tile the %d-node machine", prev, n)
	}
	return nil
}

// ClusterLevels returns a hierarchical cluster machine from an
// outermost-first shape: shape[len-1] cores per innermost group,
// aggregated upward. A two-element shape is exactly the classic
// two-level Cluster; deeper shapes insert intermediate fabrics whose
// latency doubles per level between the hardware-DSM-class innermost
// fabric and the CM-5-class top-level network.
func ClusterLevels(shape []int) (*Params, error) {
	if len(shape) < 2 {
		return nil, fmt.Errorf("network: cluster needs at least <groups>x<cores> (got %d dims)", len(shape))
	}
	nodes := 1
	for i, d := range shape {
		min := 1
		if i == len(shape)-1 {
			min = 2 // innermost: a "cluster" of 1 core is just a flat machine
		}
		if d < min {
			return nil, fmt.Errorf("network: cluster dimension %d is %d, must be >= %d", i, d, min)
		}
		if nodes > MaxNodes/d {
			return nil, fmt.Errorf("network: cluster %s exceeds %d nodes", shapeString(shape), MaxNodes)
		}
		nodes *= d
	}
	p := *CM5()
	cores := shape[len(shape)-1]
	p.GroupSize = cores
	p.Groups = nodes / cores
	p.IntraWireLatency = 600 * sim.Nanosecond
	p.IntraPerByteWire = 3 * sim.Nanosecond
	// Intermediate levels, innermost-first: span grows by each further
	// dimension, latency doubles per level toward the top-level wire.
	span := cores
	wire := p.IntraWireLatency
	perByte := p.IntraPerByteWire
	for i := len(shape) - 2; i >= 1; i-- {
		span *= shape[i]
		wire *= 2
		perByte *= 2
		p.Hier = append(p.Hier, FabricLevel{Span: span, Wire: wire, PerByte: perByte})
	}
	return mustValid(&p), nil
}

// Mesh returns a flat machine arranged as a w x h 2D mesh: transit
// between nodes grows by HopLatency per Manhattan hop beyond the first,
// so neighbors pay exactly the CM-5 transit and far corners pay the
// full diameter. Node i sits at (i mod w, i div w). Software costs are
// CM-5-class; only transit is topology-aware.
func Mesh(w, h int) (*Params, error) {
	if w < 1 || h < 1 || w*h < 2 {
		return nil, fmt.Errorf("network: mesh needs positive dimensions with >= 2 nodes (got %dx%d)", w, h)
	}
	if w*h > MaxNodes {
		return nil, fmt.Errorf("network: mesh %dx%d exceeds %d nodes", w, h, MaxNodes)
	}
	p := *CM5()
	p.MeshW, p.MeshH = w, h
	p.HopLatency = 1 * sim.Microsecond
	return mustValid(&p), nil
}

// FatTree returns a 4-ary fat tree with the given number of levels:
// 4^levels nodes in leaf groups of 4, with one intermediate fabric per
// internal level. Wire latency doubles per level upward (600ns at the
// leaves), modeling the longer cable runs and switch traversals; the
// per-byte cost also doubles, modeling the oversubscription a real fat
// tree's thinning links impose.
func FatTree(levels int) (*Params, error) {
	if levels < 2 || levels > 6 {
		return nil, fmt.Errorf("network: fattree needs 2..6 levels (got %d; 4^levels nodes, max %d)", levels, MaxNodes)
	}
	p := *CM5()
	nodes := 1
	for i := 0; i < levels; i++ {
		nodes *= 4
	}
	p.GroupSize = 4
	p.Groups = nodes / 4
	p.IntraWireLatency = 600 * sim.Nanosecond
	p.IntraPerByteWire = 3 * sim.Nanosecond
	span := 4
	wire := p.IntraWireLatency
	perByte := p.IntraPerByteWire
	for k := 2; k <= levels; k++ {
		span *= 4
		wire *= 2
		perByte *= 2
		if k < levels {
			p.Hier = append(p.Hier, FabricLevel{Span: span, Wire: wire, PerByte: perByte})
		} else {
			// The root level is the machine's top-level network.
			p.WireLatency = wire
			p.PerByteWire = perByte
		}
	}
	return mustValid(&p), nil
}

// shapeString renders a cluster shape as its preset spelling.
func shapeString(shape []int) string {
	parts := make([]string, len(shape))
	for i, d := range shape {
		parts[i] = strconv.Itoa(d)
	}
	return "cluster:" + strings.Join(parts, "x")
}

// parseDims splits "4x8" / "4x4x8" into integer dimensions.
func parseDims(s string) ([]int, bool) {
	parts := strings.Split(s, "x")
	if len(parts) < 1 {
		return nil, false
	}
	dims := make([]int, len(parts))
	for i, ps := range parts {
		v, err := strconv.Atoi(ps)
		if err != nil {
			return nil, false
		}
		dims[i] = v
	}
	return dims, true
}
