// Command perfbench runs one pass of one benchmark workload through
// presto's public entry points, checks every output against the
// committed goldens or the chaos oracle, and prints the pass's
// measurements as one JSON line on standard output.
//
// run.py (next to this file) is the benchmark's command: it builds this
// program and starts one fresh process per pass, so that what one pass
// leaves behind (parked goroutines, retained machines, a grown heap)
// never inflates the next pass's numbers.
//
//	perfbench -workload paper-figures [-seed N] [-pass K] [-trace | -setup-only] [-root DIR] [-t0 UNIXNANO]
//
// Untraced passes report the end-to-end metrics; a traced pass (-trace)
// times the calls into each layer, samples CPU and heap profiles, and
// reports the per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one pass's invocation.
type config struct {
	workload string
	seed     int64
	// pass is the pass's index within its run; a chaos band moves on by
	// one band per pass.
	pass   int
	traced bool
	// setupOnly stops after set-up: run.py starts several such processes
	// per run so that setup_s is a median even when a run has one pass.
	setupOnly bool
	// short shrinks every workload to a smoke-sized pass (tests only).
	short bool
	// root is the checkout root holding internal/ and testdata/.
	root string
	// goldenDir holds figure{5,6,7}.csv, scale.csv and predict-error.csv.
	goldenDir string
	// t0 is when the process was started; setup_s counts from it.
	t0 time.Time
}

func main() {
	var (
		workload = flag.String("workload", "", "paper-figures | kilonode | predict | chaos-band")
		seed     = flag.Int64("seed", 1, "workload seed (the chaos-band start seed)")
		passIdx  = flag.Int("pass", 0, "index of this pass within its run")
		traced   = flag.Bool("trace", false, "report per-layer metrics instead of end-to-end ones")
		setup    = flag.Bool("setup-only", false, "measure set-up alone: report setup_s and exit")
		root     = flag.String("root", ".", "checkout root")
		t0       = flag.Int64("t0", 0, "wall clock (Unix ns) just before this process was started; 0 = now")
	)
	flag.Parse()
	start := time.Now()
	if *t0 != 0 {
		start = time.Unix(0, *t0)
	}
	// The benchmark never asks for more Ps than the host has CPUs.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	c := config{
		workload:  *workload,
		seed:      *seed,
		pass:      *passIdx,
		traced:    *traced,
		setupOnly: *setup,
		root:      *root,
		goldenDir: filepath.Join(*root, "internal", "harness", "testdata", "golden"),
		t0:        start,
	}
	res, err := runPass(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
