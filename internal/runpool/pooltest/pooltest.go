// Package pooltest runs copies of a simulation side by side on the run
// pool, for tests that check a run's output does not depend on which
// runs overlap it in wall-clock time — the premise that lets chaos seeds
// and predictor validation seeds share a multi-core host (DESIGN.md §11).
package pooltest

import (
	"runtime"

	"presto/internal/runpool"
)

// SideBySide runs run(0), …, run(n-1) through runpool.Ordered with
// GOMAXPROCS raised to at least n for the call, so all n runs are in
// flight at once, and returns their results in index order. A run that
// panics panics the caller, as runpool.Ordered hands it over. run must
// not share mutable state between indices, and must not call t.Fatal:
// it runs on a pool goroutine.
func SideBySide[T any](n int, run func(i int) T) []T {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(n, runtime.GOMAXPROCS(0))))
	out := make([]T, 0, n)
	runpool.Ordered(nil, n, run, func(_ int, v T) bool {
		out = append(out, v)
		return true
	})
	return out
}
