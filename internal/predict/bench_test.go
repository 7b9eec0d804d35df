package predict

import (
	"testing"

	"presto/internal/apps/water"
	"presto/internal/rt"
)

// BenchmarkCalibrate times Calibrate alone on one recorded quick-scale
// water calibration (16 nodes, 256 molecules, 8 steps, predictive
// protocol); the recording simulation runs once, outside the timer.
func BenchmarkCalibrate(b *testing.B) {
	r, err := water.Run(water.Config{
		Machine:   rt.Config{Nodes: 16, BlockSize: 32, Protocol: rt.ProtoPredictive, Profile: true, Record: true},
		Molecules: 256, Steps: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Calibrate(r.Machine, "water"); err != nil {
			b.Fatal(err)
		}
	}
}
