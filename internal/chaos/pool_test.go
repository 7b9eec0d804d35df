package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"presto/internal/rt"
)

// campaign runs Fuzz with a log buffer and returns the report's JSON and
// the log bytes.
func campaign(t *testing.T, o Options) (Report, []byte, []byte) {
	t.Helper()
	var log bytes.Buffer
	o.Log = &log
	rep := Fuzz(o)
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return rep, js, log.Bytes()
}

// TestFuzzPoolDeterminism: seeds run side by side on the run pool, yet
// the Report and the Log bytes must be those of the serial loop at any
// GOMAXPROCS — a clean band, a failing campaign that stops at
// MaxFailures and shrinks, and a cancelled campaign.
func TestFuzzPoolDeterminism(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name  string
		o     Options
		check func(t *testing.T, rep Report)
	}{
		{"clean-band", Options{Seeds: 60}, func(t *testing.T, rep Report) {
			if !rep.Ok() || rep.SeedsRun != 60 || rep.Interrupted {
				t.Fatalf("clean band: %d seeds, %d failures, interrupted=%v", rep.SeedsRun, len(rep.Failures), rep.Interrupted)
			}
		}},
		{"mutation-max2-shrink", Options{Seeds: 50, MaxFailures: 2, Mutation: rt.MutationStacheSkipDeferral}, func(t *testing.T, rep Report) {
			if len(rep.Failures) != 2 || rep.Interrupted {
				t.Fatalf("want a stop at 2 failures, got %d (interrupted=%v)", len(rep.Failures), rep.Interrupted)
			}
			// Seeds start at 1, so the stop seed is also the seed count.
			if last := rep.Failures[1].Seed; rep.SeedsRun != int(last) {
				t.Fatalf("SeedsRun %d does not end at the second failing seed %d", rep.SeedsRun, last)
			}
			for _, f := range rep.Failures {
				if !f.MinResult.Failed() || f.Min.Nodes > f.Result.Spec.Nodes {
					t.Fatalf("seed %d: not shrunk: min %+v", f.Seed, f.Min)
				}
			}
		}},
		{"cancelled", Options{Seeds: 20, Ctx: cancelled}, func(t *testing.T, rep Report) {
			if rep.SeedsRun != 0 || !rep.Interrupted {
				t.Fatalf("cancelled campaign: %d seeds, interrupted=%v", rep.SeedsRun, rep.Interrupted)
			}
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var refJS, refLog []byte
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				rep, js, log := campaign(t, c.o)
				c.check(t, rep)
				if refJS == nil {
					refJS, refLog = js, log
					continue
				}
				if !bytes.Equal(js, refJS) {
					t.Fatalf("GOMAXPROCS=%d report differs from GOMAXPROCS=1:\n%.400s\nvs\n%.400s", procs, js, refJS)
				}
				if !bytes.Equal(log, refLog) {
					t.Fatalf("GOMAXPROCS=%d log differs from GOMAXPROCS=1:\n%.400s\nvs\n%.400s", procs, log, refLog)
				}
			}
		})
	}
}

// cancelAt is a Log writer that cancels the campaign once it logs the
// given seed's verdict.
type cancelAt struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	marker string
	cancel context.CancelFunc
}

func (w *cancelAt) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if strings.HasPrefix(string(p), w.marker) {
		w.cancel()
	}
	return w.buf.Write(p)
}

// TestFuzzCancelMidCampaignReportsPrefix: cancelling while seeds run
// ahead stops dispatch, and the report covers exactly the contiguous
// prefix of seeds that completed, logged in seed order.
func TestFuzzCancelMidCampaignReportsPrefix(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		ctx, cancel := context.WithCancel(context.Background())
		w := &cancelAt{marker: "seed 5 ", cancel: cancel}
		rep := Fuzz(Options{Seeds: 30, Ctx: ctx, Log: w})
		cancel()
		if !rep.Interrupted || rep.SeedsRun < 5 || rep.SeedsRun > 5+procs {
			t.Fatalf("procs=%d: %d seeds run after a cancel at seed 5 (interrupted=%v)", procs, rep.SeedsRun, rep.Interrupted)
		}
		var want strings.Builder
		for s := 1; s <= rep.SeedsRun; s++ {
			fmt.Fprintf(&want, "seed %d ok", s)
		}
		var got strings.Builder
		for _, line := range strings.Split(strings.TrimSpace(w.buf.String()), "\n") {
			got.WriteString(line[:strings.Index(line, " (")])
		}
		if got.String() != want.String() {
			t.Fatalf("procs=%d: log is not the contiguous prefix of %d seeds:\n%s", procs, rep.SeedsRun, w.buf.String())
		}
	}
}
