package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"presto/internal/rt"
)

// TestScaleCSVGolden locks the scaling curve against a committed golden
// file: every (topology, nodes, aggregation) point — elapsed time, total
// and cross-group message counts, leader aggregates — must reproduce
// bit-exactly under both schedulers, 1024-node machines included. Regenerate with -update.
func TestScaleCSVGolden(t *testing.T) {
	e, ok := ByID("scale")
	if !ok {
		t.Fatal("scale experiment not registered")
	}
	path := filepath.Join("testdata", "golden", "scale.csv")
	for _, o := range []Options{
		{Scale: Quick, Sched: rt.SchedWheel},
		{Scale: Quick, Sched: rt.SchedHeap},
	} {
		res, err := e.Run(o)
		if err != nil {
			t.Fatalf("scale (%s): %v", o.Sched, err)
		}
		var buf bytes.Buffer
		res.CSV(&buf)
		if *updateGolden && o.Sched == rt.SchedWheel {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (regenerate with -update): %v", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("scale sched %q diverges from %s:\n--- got ---\n%s--- want ---\n%s",
				o.Sched, path, buf.Bytes(), want)
		}
	}
}
