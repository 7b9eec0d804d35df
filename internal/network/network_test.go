package network

import (
	"testing"

	"presto/internal/sim"
)

func TestCM5MissLatencyNearPaper(t *testing.T) {
	p := CM5()
	// The paper reports ~200us *average* remote access latency on
	// Blizzard/CM-5. A two-hop miss should be below that and a recall
	// (three-hop) above-or-near it; check the two-hop is in a plausible
	// band for a 32-byte block.
	lat := p.RemoteReadMiss2Hop(32)
	if lat < 80*sim.Microsecond || lat > 200*sim.Microsecond {
		t.Fatalf("2-hop 32B miss latency = %v, want within [80us,200us]", lat)
	}
	threeHop := lat + p.SendCost(32) + p.TransitDelay(32) + p.RecvOverhead
	if threeHop < 120*sim.Microsecond || threeHop > 320*sim.Microsecond {
		t.Fatalf("3-hop miss = %v, out of band", threeHop)
	}
}

func TestCostsMonotonicInSize(t *testing.T) {
	p := CM5()
	if p.SendCost(1024) <= p.SendCost(32) {
		t.Fatal("SendCost not monotonic")
	}
	if p.TransitDelay(1024) <= p.TransitDelay(32) {
		t.Fatal("TransitDelay not monotonic")
	}
}

func TestBulkCheaperThanManySmall(t *testing.T) {
	p := CM5()
	// Coalescing 8 blocks of 32B into one message must beat 8 messages:
	// it amortizes 7 header+overhead costs.
	bulk := p.SendCost(256) + p.TransitDelay(256) + p.RecvOverhead
	var many sim.Time
	for i := 0; i < 8; i++ {
		many += p.SendCost(32) + p.TransitDelay(32) + p.RecvOverhead
	}
	if bulk >= many {
		t.Fatalf("bulk %v not cheaper than 8 small %v", bulk, many)
	}
}

// TestMinLatency pins the global latency floor: it must be the
// smaller of the minimal transit delay and the barrier cost, and positive
// on every platform model.
func TestMinLatency(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *Params
	}{{"CM5", CM5()}, {"NOW", NOW()}, {"HardwareDSM", HardwareDSM()}} {
		min := tc.p.MinLatency()
		if min <= 0 {
			t.Fatalf("%s: MinLatency = %v, want > 0", tc.name, min)
		}
		if min > tc.p.TransitDelay(0) || min > tc.p.BarrierLatency {
			t.Fatalf("%s: MinLatency %v exceeds transit %v or barrier %v",
				tc.name, min, tc.p.TransitDelay(0), tc.p.BarrierLatency)
		}
	}
	// On the CM-5 the minimal transit (6us wire + 16 header bytes) is well
	// below the 40us barrier, so it is the floor.
	cm5 := CM5()
	if got, want := cm5.MinLatency(), cm5.TransitDelay(0); got != want {
		t.Fatalf("CM5 MinLatency = %v, want TransitDelay(0) = %v", got, want)
	}
}
