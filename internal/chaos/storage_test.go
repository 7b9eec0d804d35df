package chaos

import (
	"reflect"
	"testing"

	"presto/internal/blockstate"
	"presto/internal/rt"
)

// TestStorageDifferential is the dense-storage property test: for a band
// of derived workloads, running the same program with the paged
// block-state backend and with the retained map-based reference must
// produce identical fingerprints — same elapsed time, kernel stats,
// counters, final memory AND identical quiescent protocol state
// (StateHash covers directory entries, deferral flags and schedules).
// The storage layer may change complexity, never behavior.
func TestStorageDifferential(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	protos := []rt.ProtocolKind{rt.ProtoStache, rt.ProtoPredictive}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		s := Derive(seed, ScaleQuick)
		for _, proto := range protos {
			dense := ExecuteStorage(s, proto, "", 2_000_000, blockstate.Dense)
			ref := ExecuteStorage(s, proto, "", 2_000_000, blockstate.MapRef)
			if !reflect.DeepEqual(dense, ref) {
				t.Fatalf("seed %d %s: dense vs map-reference diverge on %v\ndense: %v\nref:   %v",
					seed, proto, dense.diff(ref), dense, ref)
			}
			if !dense.Clean() {
				t.Fatalf("seed %d %s: unclean run: %v", seed, proto, dense)
			}
		}
	}
}

// TestStorageDefaultIsDense pins the default: an empty Storage kind must
// behave exactly like an explicit blockstate.Dense.
func TestStorageDefaultIsDense(t *testing.T) {
	s := Derive(11, ScaleQuick)
	def := Execute(s, rt.ProtoPredictive, "", 2_000_000)
	dense := ExecuteStorage(s, rt.ProtoPredictive, "", 2_000_000, blockstate.Dense)
	if !reflect.DeepEqual(def, dense) {
		t.Fatalf("default storage diverges from dense: %v", def.diff(dense))
	}
}
