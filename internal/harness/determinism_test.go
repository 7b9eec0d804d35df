package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"presto/internal/runpool/pooltest"
)

// TestFigureCSVEngineIdentity is the harness-level determinism check for
// run-level parallelism: two copies of each of the paper's execution-time
// figures run side by side on the run pool, and each copy's CSV rows must
// be byte-identical to the committed golden. Experiments share no mutable
// state, so pooling figure rows (DESIGN.md §11) can only ever cost memory,
// never change a number.
func TestFigureCSVEngineIdentity(t *testing.T) {
	for _, id := range []string{"figure5", "figure6", "figure7"} {
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", id+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			type csvRun struct {
				csv []byte
				err error
			}
			runs := pooltest.SideBySide(2, func(int) csvRun {
				csv, _, err := RunCSV(e, Options{Scale: Quick})
				return csvRun{csv, err}
			})
			for i, r := range runs {
				if r.err != nil {
					t.Fatalf("copy %d: %v", i, r.err)
				}
				if !bytes.Equal(r.csv, want) {
					t.Fatalf("copy %d: CSV rows differ from the golden when run side by side:\n--- got ---\n%s--- want ---\n%s", i, r.csv, want)
				}
			}
		})
	}
}
