// Package presto is the public facade of this repository: a Go
// reproduction of "Compiler-directed Shared-Memory Communication for
// Iterative Parallel Applications" (Viswanathan & Larus, Supercomputing
// 1996).
//
// The package re-exports the pieces a user composes:
//
//   - a simulated fine-grain DSM machine (Config/New/Machine/Worker) with
//     selectable coherence protocols — Stache write-invalidate, the
//     paper's predictive protocol, and a write-update baseline;
//   - the cstar (C**-subset) compiler pipeline (Compile) that summarizes
//     parallel functions, runs the reaching-unstructured-accesses
//     analysis, and places pre-send directives;
//   - an interpreter (Execute) that runs compiled programs on the
//     machine, letting the compiler's directives drive the protocol; and
//   - the three paper applications and the experiment registry that
//     regenerates every table and figure.
package presto

import (
	"presto/internal/apps/adaptive"
	"presto/internal/apps/barnes"
	"presto/internal/apps/unstructured"
	"presto/internal/apps/water"
	"presto/internal/check"
	"presto/internal/compiler"
	"presto/internal/harness"
	"presto/internal/interp"
	"presto/internal/lang"
	"presto/internal/rt"
)

// Machine construction and SPMD programming.
type (
	// Config selects node count, cache-block size, protocol and cost
	// model for one simulated machine.
	Config = rt.Config
	// Machine is a simulated 32-node-class DSM machine.
	Machine = rt.Machine
	// Worker is one node's view of a running SPMD program.
	Worker = rt.Worker
	// Breakdown is the paper's three-way execution-time split.
	Breakdown = rt.Breakdown
	// Counters aggregates protocol event counts.
	Counters = rt.Counters
)

// Protocol selectors.
const (
	// Stache is the default write-invalidate protocol (unoptimized).
	Stache = rt.ProtoStache
	// Predictive is the paper's predictive protocol (optimized).
	Predictive = rt.ProtoPredictive
	// Update is the write-update baseline protocol.
	Update = rt.ProtoUpdate
)

// NewMachine builds a machine; allocate aggregates, then call Run once.
func NewMachine(cfg Config) *Machine { return rt.New(cfg) }

// CheckCoherence audits protocol invariants over a finished machine and
// returns human-readable violations (empty means coherent).
func CheckCoherence(m *Machine) []string {
	var out []string
	for _, v := range check.Machine(m) {
		out = append(out, v.String())
	}
	return out
}

// Compiler pipeline.
type (
	// Program is a parsed cstar program.
	Program = lang.Program
	// Analysis is the compiler's placement analysis of a program.
	Analysis = compiler.Analysis
)

// Compile parses and analyzes cstar source, returning the analysis whose
// Report method renders the Figure-4-style annotated CFG.
func Compile(src string) (*Analysis, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return compiler.Analyze(prog)
}

// ExecuteOptions configures an interpreted run.
type ExecuteOptions = interp.Options

// ExecuteResult is an interpreted run's outcome.
type ExecuteResult = interp.Result

// Execute runs a compiled program on a simulated machine, with the
// compiler's directives driving the predictive protocol.
func Execute(a *Analysis, opt ExecuteOptions) (*ExecuteResult, error) {
	return interp.Run(a, opt)
}

// Applications (paper §5).
type (
	// AdaptiveConfig configures the structured adaptive mesh benchmark.
	AdaptiveConfig = adaptive.Config
	// AdaptiveResult is an Adaptive run's outcome.
	AdaptiveResult = adaptive.Result
	// BarnesConfig configures the Barnes-Hut N-body benchmark.
	BarnesConfig = barnes.Config
	// BarnesResult is a Barnes run's outcome.
	BarnesResult = barnes.Result
	// WaterConfig configures the molecular-dynamics benchmark.
	WaterConfig = water.Config
	// WaterResult is a Water run's outcome.
	WaterResult = water.Result
	// UnstructuredConfig configures the irregular bipartite-mesh kernel
	// (paper Figure 3) used for the inspector-executor comparison (§2).
	UnstructuredConfig = unstructured.Config
	// UnstructuredResult is an unstructured run's outcome.
	UnstructuredResult = unstructured.Result
)

// Unstructured-kernel strategies.
const (
	// PlainStrategy runs the kernel with no optimization.
	PlainStrategy = unstructured.Plain
	// PredictiveStrategy runs it on the predictive protocol.
	PredictiveStrategy = unstructured.Predictive
	// InspectorStrategy runs it with CHAOS-style inspection and bulk
	// gather execution.
	InspectorStrategy = unstructured.InspectorExecutor
)

// RunAdaptive executes the Adaptive benchmark.
func RunAdaptive(cfg AdaptiveConfig) (*AdaptiveResult, error) { return adaptive.Run(cfg) }

// RunBarnes executes the Barnes benchmark.
func RunBarnes(cfg BarnesConfig) (*BarnesResult, error) { return barnes.Run(cfg) }

// RunWater executes the Water benchmark.
func RunWater(cfg WaterConfig) (*WaterResult, error) { return water.Run(cfg) }

// RunUnstructured executes the irregular bipartite-mesh kernel.
func RunUnstructured(cfg UnstructuredConfig) (*UnstructuredResult, error) {
	return unstructured.Run(cfg)
}

// Experiments.
type (
	// Experiment is one registered paper artifact (table/figure).
	Experiment = harness.Experiment
	// ExperimentResult holds an experiment's rows and derived notes.
	ExperimentResult = harness.Result
	// Scale selects quick (CI) or paper workload sizes.
	Scale = harness.Scale
	// ExperimentOptions selects the workload scale and machine-wide knobs
	// for an experiment run.
	ExperimentOptions = harness.Options
)

// Scales.
const (
	// QuickScale runs CI-sized workloads.
	QuickScale = harness.Quick
	// PaperScale runs the paper's Table-1 workload sizes.
	PaperScale = harness.Paper
)

// Experiments returns every registered paper artifact, sorted by ID.
func Experiments() []Experiment { return harness.All() }

// ExperimentByID looks up one artifact ("table1", "figure5", ...).
func ExperimentByID(id string) (Experiment, bool) { return harness.ByID(id) }

// RunExperiment executes one artifact with the given options.
func RunExperiment(e Experiment, o ExperimentOptions) (*ExperimentResult, error) {
	return e.Run(o)
}
