// Package metrics is the simulator's metrics registry: typed counters,
// virtual-time timers and power-of-two histograms that protocol and
// runtime code update on hot paths without allocating. Instruments are
// registered once (at machine construction) and updated through cached
// pointers; a Snapshot renders every instrument in deterministic (sorted)
// order, so two runs of the same configuration produce byte-identical
// exports — metrics double as a correctness oracle in tests.
//
// The simulation kernel serializes all Proc goroutines (handing control
// through channels, which establishes happens-before edges), so the
// instruments deliberately use plain fields rather than atomics.
package metrics

import (
	"encoding/json"
	"io"
	"math/bits"
	"sort"

	"presto/internal/sim"
)

// Counter is a monotonically updated event count.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n int64) { c.v += n }

// Set overwrites the value (used to publish externally tracked totals,
// e.g. kernel statistics, into a registry at snapshot time).
func (c *Counter) Set(n int64) { c.v = n }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Timer accumulates virtual-time durations.
type Timer struct {
	total sim.Time
	n     int64
}

// Observe adds one duration.
func (t *Timer) Observe(d sim.Time) {
	t.total += d
	t.n++
}

// Total returns the accumulated virtual time.
func (t *Timer) Total() sim.Time { return t.total }

// Count returns the number of observations.
func (t *Timer) Count() int64 { return t.n }

// Mean returns the mean observed duration (0 when empty).
func (t *Timer) Mean() sim.Time {
	if t.n == 0 {
		return 0
	}
	return t.total / sim.Time(t.n)
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts values v with bits.Len64(v) == i, i.e. bucket 0 holds v == 0 and
// bucket i>0 holds v in [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a power-of-two histogram of non-negative int64 samples
// (message sizes in bytes, fault-to-grant latencies in nanoseconds).
// Observing is allocation-free: the bucket index is the sample's bit
// length.
type Histogram struct {
	buckets [histBuckets]int64
	n       int64
	sum     int64
	max     int64
}

// Observe records one sample. Negative samples clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Max returns the largest sample seen.
func (h *Histogram) Max() int64 { return h.max }

// Bucket returns the count of bucket i (see histBuckets).
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i] }

// Quantile estimates the q-th quantile (q in [0,1]) as the inclusive
// upper bound of the first bucket whose cumulative count reaches
// ceil(q*n). Power-of-two buckets make this an upper estimate within 2x
// of the true value — good enough for p50/p99 latency reporting. Returns
// 0 for an empty histogram; the top bucket clamps to Max.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	want := int64(q * float64(h.n))
	if float64(want) < q*float64(h.n) || want == 0 {
		want++
	}
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum >= want {
			var le int64
			if i >= 63 {
				le = int64(^uint64(0) >> 1)
			} else {
				le = int64(1)<<uint(i) - 1
			}
			if le > h.max {
				le = h.max
			}
			return le
		}
	}
	return h.max
}

// nonEmpty returns the dense [lo,hi) bucket range holding all samples.
func (h *Histogram) nonEmpty() (lo, hi int) {
	lo, hi = -1, 0
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if lo < 0 {
			lo = i
		}
		hi = i + 1
	}
	if lo < 0 {
		lo = 0
	}
	return lo, hi
}

// Registry owns named instruments. Lookup methods get-or-create, so
// instruments can be declared wherever they are first wired; callers must
// cache the returned pointer rather than re-looking-up on hot paths.
type Registry struct {
	counters map[string]*Counter
	timers   map[string]*Timer
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		timers:   make(map[string]*Timer),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if absent.
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Timer returns the named timer, creating it if absent.
func (r *Registry) Timer(name string) *Timer {
	t := r.timers[name]
	if t == nil {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the named histogram, creating it if absent.
func (r *Registry) Histogram(name string) *Histogram {
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// AddCounter registers c, an instrument its owner keeps in its own
// state, under name (replacing any counter of that name).
func (r *Registry) AddCounter(name string, c *Counter) { r.counters[name] = c }

// AddHistogram registers h, an instrument its owner keeps in its own
// state, under name (replacing any histogram of that name).
func (r *Registry) AddHistogram(name string, h *Histogram) { r.hists[name] = h }

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// TimerValue is one timer in a snapshot.
type TimerValue struct {
	Name    string `json:"name"`
	TotalNS int64  `json:"total_ns"`
	Count   int64  `json:"count"`
}

// HistogramBucket is one non-empty power-of-two bucket: Le is the
// bucket's inclusive upper bound (2^i - 1).
type HistogramBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramValue is one histogram in a snapshot.
type HistogramValue struct {
	Name    string            `json:"name"`
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Max     int64             `json:"max"`
	Buckets []HistogramBucket `json:"buckets"`
}

// Snapshot is a deterministic (name-sorted) rendering of a registry.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Timers     []TimerValue     `json:"timers,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Snapshot renders the registry. Zero-valued counters are kept (the
// instrument set is part of the oracle); histogram buckets are trimmed to
// the dense non-empty range.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.v})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	for name, t := range r.timers {
		s.Timers = append(s.Timers, TimerValue{Name: name, TotalNS: int64(t.total), Count: t.n})
	}
	sort.Slice(s.Timers, func(i, j int) bool { return s.Timers[i].Name < s.Timers[j].Name })
	for name, h := range r.hists {
		hv := HistogramValue{Name: name, Count: h.n, Sum: h.sum, Max: h.max}
		lo, hi := h.nonEmpty()
		for i := lo; i < hi; i++ {
			var le int64
			if i >= 63 {
				le = int64(^uint64(0) >> 1) // MaxInt64
			} else {
				le = int64(1)<<uint(i) - 1
			}
			hv.Buckets = append(hv.Buckets, HistogramBucket{Le: le, Count: h.buckets[i]})
		}
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteJSON renders the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Counter returns the value of the named counter in the snapshot (0 if
// absent).
func (s *Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// PhaseStats accumulates one node's metrics for one compiler-identified
// parallel phase. The runtime establishes the current phase at each phase
// directive; the substrate attributes faults, wait time and pre-send
// consumption to it through a cached pointer (no lookups on hot paths).
type PhaseStats struct {
	Phase int   `json:"phase"`
	Iters int64 `json:"iters"`

	ComputeNS    int64 `json:"compute_ns"`
	RemoteWaitNS int64 `json:"remote_wait_ns"`
	PresendNS    int64 `json:"presend_ns"`
	SyncNS       int64 `json:"sync_ns"`

	ReadFaults  int64 `json:"read_faults"`
	WriteFaults int64 `json:"write_faults"`
	PresendsIn  int64 `json:"presends_in"`
	PresendHits int64 `json:"presend_hits"`
}

// Faults returns the phase's total fault count.
func (p *PhaseStats) Faults() int64 { return p.ReadFaults + p.WriteFaults }

// Coverage is the fraction of would-be faults averted by pre-sends:
// hits / (hits + faults). Zero when the phase saw no accesses of either
// kind.
func (p *PhaseStats) Coverage() float64 {
	den := p.PresendHits + p.Faults()
	if den == 0 {
		return 0
	}
	return float64(p.PresendHits) / float64(den)
}

// Accuracy is the fraction of pre-sent blocks actually consumed:
// hits / presends-received. Zero when nothing was pre-sent.
func (p *PhaseStats) Accuracy() float64 {
	if p.PresendsIn == 0 {
		return 0
	}
	return float64(p.PresendHits) / float64(p.PresendsIn)
}

// ResetHits zeroes the schedule-hit counters (pre-sends received and
// consumed), e.g. when the application flushes its communication
// schedules and wants hit rates measured from the rebuild onward.
func (p *PhaseStats) ResetHits() {
	p.PresendsIn = 0
	p.PresendHits = 0
}

// PhaseSet holds one node's per-phase stats. The zero value is ready to
// use.
type PhaseSet struct {
	m map[int]*PhaseStats
}

// Phase returns the stats for phase id, creating them if absent.
func (s *PhaseSet) Phase(id int) *PhaseStats {
	if s.m == nil {
		s.m = make(map[int]*PhaseStats)
	}
	p := s.m[id]
	if p == nil {
		p = &PhaseStats{Phase: id}
		s.m[id] = p
	}
	return p
}

// Lookup returns the stats for phase id, or nil.
func (s *PhaseSet) Lookup(id int) *PhaseStats { return s.m[id] }

// All returns every phase's stats sorted by phase ID.
func (s *PhaseSet) All() []*PhaseStats {
	out := make([]*PhaseStats, 0, len(s.m))
	for _, p := range s.m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Phase < out[j].Phase })
	return out
}
