//go:build race

package nn

// raceEnabled reports that the race detector is instrumenting this build;
// its shadow-memory bookkeeping allocates, so allocation-count assertions
// are skipped.
const raceEnabled = true
