package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"presto/internal/rt"
)

// -update regenerates the golden CSVs from the current implementation:
//
//	go test ./internal/harness -run TestFigureCSVGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden CSV files")

// TestFigureCSVGolden locks the figure 5–7 harness output against
// committed golden files: the quick-scale CSV rows — execution times,
// fault counts, message counts — must reproduce bit-exactly under both
// event schedulers. Any intentional change to the
// protocols, cost model or workloads shows up as a reviewable golden diff
// (regenerate with -update).
func TestFigureCSVGolden(t *testing.T) {
	for _, id := range []string{"figure5", "figure6", "figure7"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			path := filepath.Join("testdata", "golden", id+".csv")
			for _, o := range []Options{
				{Scale: Quick, Sched: rt.SchedWheel},
				{Scale: Quick, Sched: rt.SchedHeap},
			} {
				res, err := e.Run(o)
				if err != nil {
					t.Fatalf("%s (%s): %v", id, o.Sched, err)
				}
				var buf bytes.Buffer
				res.CSV(&buf)
				if *updateGolden && o.Sched == rt.SchedWheel {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (regenerate with -update): %v", err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("%s sched %q diverges from %s:\n--- got ---\n%s--- want ---\n%s",
						id, o.Sched, path, buf.Bytes(), want)
				}
			}
		})
	}
}
