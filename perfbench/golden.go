package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"presto/internal/compiler"
	"presto/internal/interp"
	"presto/internal/lang"
	"presto/internal/rt"
)

func readGolden(c config, name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(c.goldenDir, name))
}

// checkCSV compares an experiment's CSV with its golden line by line. A
// data line stands for perLine ops (figure 7 keeps the best of three
// block sizes per line); ops counts all of them. A run error fails every
// op; a differing or missing line fails its own ops.
func (p *pass) checkCSV(exp string, got []byte, err error, want []byte, ops, perLine int) {
	if err != nil {
		p.fail(ops, ops, "%s: %v", exp, err)
		return
	}
	if bytes.Equal(got, want) {
		p.ok(ops)
		return
	}
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	bad := 0
	for i := 1; i < len(w) || i < len(g); i++ {
		if i >= len(w) || i >= len(g) || g[i] != w[i] || g[0] != w[0] {
			bad += perLine
		}
	}
	if bad > ops {
		bad = ops
	}
	if bad == 0 { // only a trailing difference, still not byte-equal
		bad = perLine
	}
	p.fail(ops, bad, "%s: CSV differs from golden in %d op(s)", exp, bad)
}

// predictGolden is predict-error.csv keyed by "experiment,version".
type predictGolden map[string]struct {
	predicted string // predicted_s exactly as printed
	simNS     int64  // simulated_s in ns
}

func loadPredictGolden(c config) (predictGolden, error) {
	raw, err := readGolden(c, "predict-error.csv")
	if err != nil {
		return nil, err
	}
	out := predictGolden{}
	for i, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Split(line, ",")
		if i == 0 {
			continue
		}
		if len(f) != 6 {
			return nil, fmt.Errorf("predict-error.csv line %d: %d fields", i+1, len(f))
		}
		sim, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			return nil, fmt.Errorf("predict-error.csv line %d: %w", i+1, err)
		}
		out[f[0]+","+f[1]] = struct {
			predicted string
			simNS     int64
		}{f[3], int64(sim*1e9 + 0.5)}
	}
	return out, nil
}

// cstar is one parsed cstar program and the scalars every run of it must
// end with.
type cstar struct {
	name    string
	prog    *lang.Program
	scalars map[string]float64
}

// cstarMachine is cstarc -run's default machine.
var cstarMachine = rt.Config{Nodes: 16, BlockSize: 32, Protocol: rt.ProtoPredictive}

// loadCstar parses testdata/{barnes,nsquared}.cstar and reads the
// scalars their runs must reproduce from cstar_scalars.json.
func loadCstar(c config) ([]cstar, error) {
	raw, err := os.ReadFile(filepath.Join(c.root, "perfbench", "cstar_scalars.json"))
	if err != nil {
		return nil, err
	}
	var want map[string]map[string]float64
	if err := json.Unmarshal(raw, &want); err != nil {
		return nil, fmt.Errorf("cstar_scalars.json: %w", err)
	}
	var out []cstar
	for _, name := range []string{"barnes", "nsquared"} {
		src, err := os.ReadFile(filepath.Join(c.root, "testdata", name+".cstar"))
		if err != nil {
			return nil, err
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s.cstar: %w", name, err)
		}
		if want[name] == nil {
			return nil, fmt.Errorf("cstar_scalars.json has no %s", name)
		}
		out = append(out, cstar{name, prog, want[name]})
	}
	return out, nil
}

// runCstar compiles and executes each program, failing an op whose run
// errs or whose final scalars differ from the reference. When traced it
// times the compiler and the interpreter separately.
func (p *pass) runCstar(progs []cstar, traced bool) {
	for _, cs := range progs {
		var a *compiler.Analysis
		var err error
		d := timed(func() { a, err = compiler.Analyze(cs.prog) })
		if err != nil {
			p.fail(1, 1, "%s.cstar: analyze: %v", cs.name, err)
			continue
		}
		var r *interp.Result
		d2 := timed(func() { r, err = interp.Run(a, interp.Options{Machine: cstarMachine}) })
		if err != nil {
			p.fail(1, 1, "%s.cstar: run: %v", cs.name, err)
			continue
		}
		if traced {
			p.add("compiler.analyze_ms", float64(d.Microseconds())/1e3)
			p.add("interp.run_s", d2.Seconds())
			p.machine(r.Machine, d2)
		}
		if !sameScalars(r.Scalars, cs.scalars) {
			p.fail(1, 1, "%s.cstar: scalars %v, want %v", cs.name, r.Scalars, cs.scalars)
			continue
		}
		p.ok(1)
	}
}

func sameScalars(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}
