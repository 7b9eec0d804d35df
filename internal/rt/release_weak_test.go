//go:build go1.24

package rt_test

import (
	"runtime"
	"testing"
	"weak"

	"presto/internal/network"
	"presto/internal/rt"
)

// TestFinishedKilonodeMachineCollected builds and runs a 1024-node
// clustered machine with aggregation, reads it after Run, and then checks
// that the garbage collector reclaims it once dropped: no parked protocol
// daemon may pin a finished machine.
func TestFinishedKilonodeMachineCollected(t *testing.T) {
	net, err := network.Preset("cluster:128x8")
	if err != nil {
		t.Fatal(err)
	}
	m := rt.New(rt.Config{Nodes: 1024, Protocol: rt.ProtoUpdate, Net: net, Aggregate: true})
	if err := m.Run(neighborProg(m, 1)); err != nil {
		t.Fatal(err)
	}
	if m.HashMemory() == 0 || m.Counters().MsgsSent == 0 || m.Report().Nodes != 1024 {
		t.Fatal("finished machine does not read back")
	}
	wp := weak.Make(m)
	m = nil
	runtime.GC()
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("finished 1024-node machine is still reachable after GC")
	}
}
