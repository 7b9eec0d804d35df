package predict

import (
	"fmt"

	"presto/internal/chaos"
	"presto/internal/rt"
	"presto/internal/runpool"
)

// chaosBandShifts are the block-size extrapolations each seed validates
// (from the forced 32-byte calibration point).
var chaosBandShifts = []int{1, 2, 3} // 64, 128, 256 bytes

// ChaosBand sweeps a band of chaos seeds: each seed derives a synthetic
// workload, runs one 32-byte calibration simulation, and validates the
// predictor against full simulations at larger block sizes. Seeds
// alternate protocol (stache on even, predictive on odd). Jitter is
// forced off — the predictor models deterministic interconnects, and a
// jittered band would measure the jitter, not the model.
func ChaosBand(seeds int) (*ErrorTable, error) {
	return ChaosBandShifts(seeds, chaosBandShifts)
}

// ChaosBandShifts is ChaosBand restricted to the given block-size shifts.
// The CI predict-validate gate runs the 2x band (shift 1), where the
// adversarial seeds stay inside the model's gated error budget; the wider
// extrapolations are reported as an informational table (DESIGN.md §13).
// Seeds run side by side on a runpool; rows are added in seed order and
// the first failing seed's error is returned, as in a serial loop.
func ChaosBandShifts(seeds int, shifts []int) (*ErrorTable, error) {
	table := &ErrorTable{}
	var err error
	runpool.Ordered(nil, seeds, func(i int) bandSeed {
		var r bandSeed
		r.rows, r.err = chaosBandSeed(int64(i), shifts)
		return r
	}, func(_ int, r bandSeed) bool {
		err = r.err
		table.Rows = append(table.Rows, r.rows...)
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return table, nil
}

// bandSeed is one seed's validation rows, or the error that stopped it.
type bandSeed struct {
	rows []ErrorRow
	err  error
}

// chaosBandSeed calibrates one seed at 32 bytes and checks each shifted
// block size's prediction against its simulation.
func chaosBandSeed(seed int64, shifts []int) ([]ErrorRow, error) {
	s := chaos.Derive(seed, chaos.ScaleQuick)
	s.BlockSize = 32
	s.JitterPct = 0
	proto := rt.ProtoStache
	if seed%2 == 1 {
		proto = rt.ProtoPredictive
	}
	rc := chaos.RunConfig{Protocol: proto}

	m, err := chaos.ExecuteCalibration(s, rc)
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	cal, err := Calibrate(m, fmt.Sprintf("chaos-%d", seed))
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	var t ErrorTable
	for _, k := range shifts {
		bs := s.BlockSize << k
		p, err := cal.Predict(Target{BlockSize: bs})
		if err != nil {
			return nil, fmt.Errorf("seed %d bs %d: %w", seed, bs, err)
		}
		sim := s
		sim.BlockSize = bs
		fp := chaos.ExecuteRun(sim, rc)
		if fp.Err != "" {
			return nil, fmt.Errorf("seed %d bs %d: simulation failed: %s", seed, bs, fp.Err)
		}
		t.Add("chaos-band", fmt.Sprintf("seed %d %s", seed, proto), bs, p.ElapsedNS, fp.ElapsedNS)
	}
	return t.Rows, nil
}
