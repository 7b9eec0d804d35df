package chaos

import (
	"reflect"
	"testing"

	"presto/internal/rt"
)

// TestSchedDifferential is the timing-wheel property test: for a band of
// derived workloads, running the same program under the wheel scheduler
// and under the binary-heap reference must produce identical fingerprints
// — same elapsed time, kernel stats (events, deliveries, resumes, queue
// high-water mark), counters, final memory AND identical quiescent
// protocol state (StateHash). The scheduler may change complexity, never
// dispatch order.
func TestSchedDifferential(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	protos := []rt.ProtocolKind{rt.ProtoStache, rt.ProtoPredictive}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		s := Derive(seed, ScaleQuick)
		for _, proto := range protos {
			wheel := ExecuteSched(s, proto, rt.SchedWheel, 2_000_000)
			heap := ExecuteSched(s, proto, rt.SchedHeap, 2_000_000)
			if !reflect.DeepEqual(wheel, heap) {
				t.Fatalf("seed %d %s: wheel vs heap diverge on %v\nwheel: %v\nheap:  %v",
					seed, proto, wheel.diff(heap), wheel, heap)
			}
			if !wheel.Clean() {
				t.Fatalf("seed %d %s: unclean run: %v", seed, proto, wheel)
			}
		}
	}
}

// TestSchedDefaultIsWheel pins the default: an empty Sched kind must
// behave exactly like an explicit rt.SchedWheel.
func TestSchedDefaultIsWheel(t *testing.T) {
	s := Derive(7, ScaleQuick)
	def := Execute(s, rt.ProtoPredictive, "", 2_000_000)
	wheel := ExecuteSched(s, rt.ProtoPredictive, rt.SchedWheel, 2_000_000)
	if !reflect.DeepEqual(def, wheel) {
		t.Fatalf("default scheduler diverges from wheel: %v", def.diff(wheel))
	}
}
