package rt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"presto/internal/causal"
	"presto/internal/runpool/pooltest"
)

// profProgram is a small cross-node workload exercising phases, faults,
// barriers and (under the predictive protocol) pre-sends.
func profProgram(arr *Array1D, arrLen int) Program {
	return func(w *Worker) {
		for it := 0; it < 3; it++ {
			w.Phase(1, func() {
				lo, hi := w.Range(arrLen)
				for i := lo; i < hi; i++ {
					w.Compute(200)
					v := w.ReadF64(arr.At((i+1)%arrLen, 0))
					w.WriteF64(arr.At(i, 0), v+1)
				}
			})
		}
	}
}

func buildProf(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := runProf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runProf is buildProf for a pool goroutine: it returns the error.
func runProf(cfg Config) (*Machine, error) {
	m := New(cfg)
	arr := m.NewArray1D("a", 16, 1, true)
	m.NamePhase(1, "sweep")
	return m, m.Run(profProgram(arr, 16))
}

// pooledProf runs one profiled machine per config side by side on the
// run pool and returns each one's validated profile as JSON.
func pooledProf(t *testing.T, cfgs []Config) [][]byte {
	t.Helper()
	type out struct {
		js  []byte
		err error
	}
	outs := pooltest.SideBySide(len(cfgs), func(i int) out {
		m, err := runProf(cfgs[i])
		if err != nil {
			return out{err: err}
		}
		p, err := m.Profile("test")
		if err == nil {
			err = p.Validate()
		}
		if err == nil && p.Path.LengthNS != int64(m.Elapsed()) {
			err = fmt.Errorf("critical path %d != elapsed %d", p.Path.LengthNS, int64(m.Elapsed()))
		}
		if err != nil {
			return out{err: err}
		}
		js, err := json.Marshal(p)
		return out{js, err}
	})
	var js [][]byte
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("config %d (%s): %v", i, cfgs[i].Protocol, o.err)
		}
		js = append(js, o.js)
	}
	return js
}

// profJSON profiles cfg on its own and returns the profile as JSON.
func profJSON(t *testing.T, cfg Config) []byte {
	t.Helper()
	p, err := buildProf(t, cfg).Profile("test")
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// TestProfileInvariant runs the workload under every protocol, on its own
// (serial) and as two copies side by side on the run pool (parallel), and
// checks the load-bearing invariants: per-node buckets sum exactly to the
// node's simulated time, and the critical-path length equals the
// end-to-end elapsed time. Pooled copies must also profile byte-identically
// to the run on its own.
func TestProfileInvariant(t *testing.T) {
	for _, proto := range []ProtocolKind{ProtoStache, ProtoPredictive, ProtoUpdate} {
		cfg := Config{Nodes: 4, BlockSize: 32, Protocol: proto, Profile: true}
		t.Run(string(proto)+"/serial", func(t *testing.T) {
			m := buildProf(t, cfg)
			p, err := m.Profile("test")
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			if p.Path.LengthNS != int64(m.Elapsed()) {
				t.Fatalf("critical path %d != elapsed %d", p.Path.LengthNS, int64(m.Elapsed()))
			}
		})
		t.Run(string(proto)+"/parallel", func(t *testing.T) {
			alone := profJSON(t, cfg)
			for i, js := range pooledProf(t, []Config{cfg, cfg}) {
				if !bytes.Equal(js, alone) {
					t.Fatalf("copy %d: profile differs when run side by side", i)
				}
			}
		})
	}
}

// TestProfileDoesNotPerturb checks that turning the profiler on changes
// no simulated result: breakdowns, counters, metrics registry and the
// kernel event statistics must be byte-identical.
func TestProfileDoesNotPerturb(t *testing.T) {
	base := buildProf(t, Config{Nodes: 4, BlockSize: 32, Protocol: ProtoPredictive})
	prof := buildProf(t, Config{Nodes: 4, BlockSize: 32, Protocol: ProtoPredictive, Profile: true})
	if !reflect.DeepEqual(base.Breakdown(), prof.Breakdown()) {
		t.Errorf("breakdown changed with profiler on:\n%+v\n%+v", base.Breakdown(), prof.Breakdown())
	}
	if base.Counters() != prof.Counters() {
		t.Errorf("counters changed with profiler on")
	}
	b1, _ := json.Marshal(base.Report())
	b2, _ := json.Marshal(prof.Report())
	if !bytes.Equal(b1, b2) {
		t.Errorf("metrics report changed with profiler on")
	}
}

// TestProfileSerialParallelAgree checks the attribution is independent of
// what else runs on the host: the three protocols profiled side by side
// on the run pool yield the same per-node buckets and critical paths —
// the whole profile, byte for byte — as each profiled on its own.
func TestProfileSerialParallelAgree(t *testing.T) {
	var cfgs []Config
	for _, proto := range []ProtocolKind{ProtoStache, ProtoPredictive, ProtoUpdate} {
		cfgs = append(cfgs, Config{Nodes: 4, BlockSize: 32, Protocol: proto, Profile: true})
	}
	for i, js := range pooledProf(t, cfgs) {
		if alone := profJSON(t, cfgs[i]); !bytes.Equal(js, alone) {
			t.Errorf("%s: attribution differs when run side by side:\nalone:  %.300s\npooled: %.300s",
				cfgs[i].Protocol, alone, js)
		}
	}
}

// TestProfileJSONRoundTrip marshals a real profile and parses it back:
// the profile.json schema must survive a round trip with nothing lost
// (the contract internal/predict will rely on).
func TestProfileJSONRoundTrip(t *testing.T) {
	m := buildProf(t, Config{Nodes: 4, BlockSize: 32, Protocol: ProtoPredictive, Profile: true})
	p, err := m.Profile("test")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back causal.Profile
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped profile fails validation: %v", err)
	}
	raw2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatal("profile.json round trip is lossy")
	}
	var render bytes.Buffer
	p.Render(&render)
	if render.Len() == 0 {
		t.Fatal("Render produced no output")
	}
}
