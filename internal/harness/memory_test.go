package harness

import (
	"runtime"
	"runtime/metrics"
	"testing"
)

// Memory budgets for the quick scale curve, in bytes of live heap above
// the level before the curve starts, measured with the cell's machine
// still referenced after Run. scaleLiveBudget is the peak over all cells:
// 36.1 MB measured on linux/amd64 with Go 1.24 (the 1024-node fat tree
// with aggregation), plus 25% headroom. The 1024-node cluster:128x8
// aggregated cell (31.5 MB measured) has a budget of its own.
const (
	scaleLiveBudget    = 45 << 20
	kilonodeCellBudget = 50 << 20
)

// liveHeap collects garbage and returns the bytes of heap the collection
// found live. The second collection empties the sync.Pool caches (the
// first only moves them aside), so recycled message bodies do not count
// as the machine's own footprint.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestScaleMemoryBudget runs every cell of the quick scale curve and
// checks the live heap each finished machine holds. A per-node structure
// that grows with the machine (a table sized to the node count in every
// node, a retained registry, a parked goroutine pinning a finished
// machine) breaks the budget long before it breaks an 8 GB host.
func TestScaleMemoryBudget(t *testing.T) {
	o := Options{Scale: Quick}
	base := liveHeap()
	var peak uint64
	var peakCell string
	for _, n := range scaleNodeCounts {
		for _, topo := range scaleTopologies {
			preset, ok := scalePreset(topo, n)
			if !ok {
				continue
			}
			for _, agg := range []bool{false, true} {
				m, err := scaleCell(o, preset, n, agg)
				if err != nil {
					t.Fatal(err)
				}
				live := liveHeap()
				runtime.KeepAlive(m)
				var held uint64
				if live > base {
					held = live - base
				}
				t.Logf("%-14s n=%4d agg=%-5v %6.1f MB live", preset, n, agg, float64(held)/(1<<20))
				if held > peak {
					peak, peakCell = held, preset
				}
				if n == 1024 && preset == "cluster:128x8" && agg && held > kilonodeCellBudget {
					t.Errorf("%s agg=on holds %.1f MB live after Run, budget %d MB",
						preset, float64(held)/(1<<20), kilonodeCellBudget>>20)
				}
			}
		}
	}
	t.Logf("peak live heap %.1f MB (%s), budget %d MB", float64(peak)/(1<<20), peakCell, scaleLiveBudget>>20)
	if peak > scaleLiveBudget {
		t.Errorf("quick scale curve peaks at %.1f MB live (%s), budget %d MB",
			float64(peak)/(1<<20), peakCell, scaleLiveBudget>>20)
	}
	// Every machine above is unreferenced now: the heap must come back.
	if after := liveHeap(); after > base+8<<20 {
		t.Errorf("live heap %.1f MB above the start after the curve: finished machines are retained",
			float64(after-base)/(1<<20))
	}
}
