package causal

import (
	"fmt"
	"io"
	"sort"

	"presto/internal/sim"
)

// SchemaVersion identifies the profile.json layout. Consumers (the
// future internal/predict) must check it before parsing.
const SchemaVersion = "presto-profile/2"

// Buckets is the exact time-attribution breakdown: every simulated
// nanosecond of a processor's timeline lands in exactly one bucket, so
// Total() equals the processor's final virtual clock (Validate checks
// this invariant).
type Buckets struct {
	ComputeNS   int64 `json:"compute_ns"`
	TransitNS   int64 `json:"transit_ns"`
	OccupancyNS int64 `json:"occupancy_ns"`
	ServiceNS   int64 `json:"service_ns"`
	BarrierNS   int64 `json:"barrier_ns"`
	StallNS     int64 `json:"stall_ns"`
	PresendNS   int64 `json:"presend_ns"`
	IdleNS      int64 `json:"idle_ns"`
}

// FromSlot converts a kernel attribution slot into schema buckets.
func FromSlot(s *sim.AttrSlot) Buckets {
	return Buckets{
		ComputeNS:   int64(s[sim.CatCompute]),
		TransitNS:   int64(s[sim.CatTransit]),
		OccupancyNS: int64(s[sim.CatOccupancy]),
		ServiceNS:   int64(s[sim.CatService]),
		BarrierNS:   int64(s[sim.CatBarrier]),
		StallNS:     int64(s[sim.CatStall]),
		PresendNS:   int64(s[sim.CatPresend]),
		IdleNS:      int64(s[sim.CatIdle]),
	}
}

// Total sums the buckets.
func (b Buckets) Total() int64 {
	return b.ComputeNS + b.TransitNS + b.OccupancyNS + b.ServiceNS +
		b.BarrierNS + b.StallNS + b.PresendNS + b.IdleNS
}

// Add accumulates o into b.
func (b *Buckets) Add(o Buckets) {
	b.ComputeNS += o.ComputeNS
	b.TransitNS += o.TransitNS
	b.OccupancyNS += o.OccupancyNS
	b.ServiceNS += o.ServiceNS
	b.BarrierNS += o.BarrierNS
	b.StallNS += o.StallNS
	b.PresendNS += o.PresendNS
	b.IdleNS += o.IdleNS
}

// each iterates the buckets in schema order with their labels.
func (b Buckets) each(fn func(label string, ns int64)) {
	fn("compute", b.ComputeNS)
	fn("transit", b.TransitNS)
	fn("occupancy", b.OccupancyNS)
	fn("service", b.ServiceNS)
	fn("barrier", b.BarrierNS)
	fn("stall", b.StallNS)
	fn("presend", b.PresendNS)
	fn("idle", b.IdleNS)
}

// PhaseAttr is one compute processor's attribution within one parallel
// phase (-1 collects time outside any phase).
type PhaseAttr struct {
	Phase   int     `json:"phase"`
	Name    string  `json:"name,omitempty"`
	Buckets Buckets `json:"buckets"`
}

// NodeProfile is one node's attribution: the compute processor's full
// timeline (TotalNS, split per phase) and the protocol processor's own
// timeline, reported separately — protocol service overlaps compute-side
// waits, so folding it in would double-count.
type NodeProfile struct {
	Node         int         `json:"node"`
	TotalNS      int64       `json:"total_ns"`
	Buckets      Buckets     `json:"buckets"`
	Phases       []PhaseAttr `json:"phases"`
	ProtoTotalNS int64       `json:"proto_total_ns"`
	Proto        Buckets     `json:"proto"`
}

// SegmentJSON is one critical-path segment in the artifact.
type SegmentJSON struct {
	Proc    string `json:"proc"`
	Kind    string `json:"kind"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// PathProfile condenses the critical path for the artifact: aggregates
// plus the longest segments (the full path can run to thousands of
// segments; TopSegments keeps the artifact bounded).
type PathProfile struct {
	LengthNS    int64            `json:"length_ns"`
	Truncated   bool             `json:"truncated,omitempty"`
	Segments    int              `json:"segments"`
	ByKindNS    map[string]int64 `json:"by_kind_ns"`
	ByProcNS    map[string]int64 `json:"by_proc_ns"`
	TopSegments []SegmentJSON    `json:"top_segments"`
}

// Profile is the profile.json artifact (see DESIGN.md §10 for the full
// schema contract).
type Profile struct {
	Schema    string        `json:"schema"`
	App       string        `json:"app,omitempty"`
	Protocol  string        `json:"protocol"`
	Nodes     int           `json:"nodes"`
	BlockSize int           `json:"block_size"`
	ElapsedNS int64         `json:"elapsed_ns"`
	PerNode   []NodeProfile `json:"per_node"`
	Path      PathProfile   `json:"critical_path"`
}

// TopSegments returns the n longest segments of a path, ties broken by
// start time, converted to the artifact form.
func TopSegments(p Path, n int) []SegmentJSON {
	segs := append([]Segment(nil), p.Segments...)
	sort.Slice(segs, func(i, j int) bool {
		if d1, d2 := segs[i].Dur(), segs[j].Dur(); d1 != d2 {
			return d1 > d2
		}
		return segs[i].Start < segs[j].Start
	})
	if len(segs) > n {
		segs = segs[:n]
	}
	out := make([]SegmentJSON, len(segs))
	for i, s := range segs {
		out[i] = SegmentJSON{Proc: s.Name, Kind: s.Kind, StartNS: int64(s.Start), EndNS: int64(s.End)}
	}
	return out
}

// PathProfileOf condenses a computed path, keeping the top segments.
func PathProfileOf(p Path, top int) PathProfile {
	out := PathProfile{
		LengthNS:    int64(p.Length),
		Truncated:   p.Truncated,
		Segments:    len(p.Segments),
		ByKindNS:    map[string]int64{},
		ByProcNS:    map[string]int64{},
		TopSegments: TopSegments(p, top),
	}
	for k, v := range p.ByKind() {
		out.ByKindNS[k] = int64(v)
	}
	for k, v := range p.ByProc() {
		out.ByProcNS[k] = int64(v)
	}
	return out
}

// Validate checks the profile's internal invariants:
//   - schema version matches
//   - per node, the bucket sum equals the compute processor's total
//     simulated time exactly, and the per-phase buckets sum to the
//     node buckets category by category
//   - the protocol processor's buckets sum to its total
//   - the critical-path length equals the end-to-end elapsed time
//     (unless the recorder ring truncated the walk)
func (p *Profile) Validate() error {
	if p.Schema != SchemaVersion {
		return fmt.Errorf("profile: schema %q, want %q", p.Schema, SchemaVersion)
	}
	for _, n := range p.PerNode {
		if got := n.Buckets.Total(); got != n.TotalNS {
			return fmt.Errorf("profile: node %d buckets sum %d != total %d", n.Node, got, n.TotalNS)
		}
		var phased Buckets
		for _, ph := range n.Phases {
			phased.Add(ph.Buckets)
		}
		if phased != n.Buckets {
			return fmt.Errorf("profile: node %d phase buckets %+v != node buckets %+v", n.Node, phased, n.Buckets)
		}
		if got := n.Proto.Total(); got != n.ProtoTotalNS {
			return fmt.Errorf("profile: node %d proto buckets sum %d != total %d", n.Node, got, n.ProtoTotalNS)
		}
	}
	if !p.Path.Truncated && p.Path.LengthNS != p.ElapsedNS {
		return fmt.Errorf("profile: critical-path length %d != elapsed %d", p.Path.LengthNS, p.ElapsedNS)
	}
	return nil
}

// MachineBuckets sums the per-node compute-processor buckets.
func (p *Profile) MachineBuckets() Buckets {
	var b Buckets
	for _, n := range p.PerNode {
		b.Add(n.Buckets)
	}
	return b
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// Render writes the human-readable profile report: machine attribution,
// per-phase table and top critical-path segments.
func (p *Profile) Render(w io.Writer) {
	fmt.Fprintf(w, "causal profile: %s protocol=%s nodes=%d block=%d\n",
		orDefault(p.App, "?"), p.Protocol, p.Nodes, p.BlockSize)
	fmt.Fprintf(w, "elapsed %v\n\n", sim.Time(p.ElapsedNS))

	total := p.MachineBuckets()
	grand := total.Total()
	fmt.Fprintf(w, "time attribution (all compute processors, %v):\n", sim.Time(grand))
	total.each(func(label string, ns int64) {
		if ns == 0 {
			return
		}
		fmt.Fprintf(w, "  %-10s %14v  %5.1f%%\n", label, sim.Time(ns), pct(ns, grand))
	})

	// Per-phase table: aggregate each phase over nodes.
	type phaseRow struct {
		phase int
		name  string
		b     Buckets
	}
	agg := map[int]*phaseRow{}
	for _, n := range p.PerNode {
		for _, ph := range n.Phases {
			r := agg[ph.Phase]
			if r == nil {
				r = &phaseRow{phase: ph.Phase, name: ph.Name}
				agg[ph.Phase] = r
			}
			r.b.Add(ph.Buckets)
		}
	}
	rows := make([]*phaseRow, 0, len(agg))
	for _, r := range agg {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].phase < rows[j].phase })
	if len(rows) > 0 {
		fmt.Fprintf(w, "\nper-phase attribution (node-summed ns):\n")
		fmt.Fprintf(w, "  %-16s %12s %12s %12s %12s %12s %12s %12s %12s\n",
			"phase", "compute", "transit", "occupancy", "service", "barrier", "stall", "presend", "idle")
		for _, r := range rows {
			name := r.name
			if name == "" {
				if r.phase < 0 {
					name = "(outside)"
				} else {
					name = fmt.Sprintf("phase %d", r.phase)
				}
			}
			fmt.Fprintf(w, "  %-16s %12d %12d %12d %12d %12d %12d %12d %12d\n",
				name, r.b.ComputeNS, r.b.TransitNS, r.b.OccupancyNS, r.b.ServiceNS,
				r.b.BarrierNS, r.b.StallNS, r.b.PresendNS, r.b.IdleNS)
		}
	}

	fmt.Fprintf(w, "\ncritical path: %v over %d segments", sim.Time(p.Path.LengthNS), p.Path.Segments)
	if p.Path.Truncated {
		fmt.Fprintf(w, " (TRUNCATED: recorder ring wrapped)")
	}
	fmt.Fprintln(w)
	kinds := make([]string, 0, len(p.Path.ByKindNS))
	for k := range p.Path.ByKindNS {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  on %-8s %14v  %5.1f%%\n", k, sim.Time(p.Path.ByKindNS[k]), pct(p.Path.ByKindNS[k], p.Path.LengthNS))
	}
	if len(p.Path.TopSegments) > 0 {
		fmt.Fprintf(w, "  top segments:\n")
		n := len(p.Path.TopSegments)
		if n > 10 {
			n = 10
		}
		for _, s := range p.Path.TopSegments[:n] {
			fmt.Fprintf(w, "    %-10s %-8s %14v  [%v .. %v]\n",
				s.Proc, s.Kind, sim.Time(s.EndNS-s.StartNS), sim.Time(s.StartNS), sim.Time(s.EndNS))
		}
	}
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
