//go:build !race

// Package race reports whether the race detector is enabled, mirroring the
// standard library's internal/race. The zero-allocation gates
// (testing.AllocsPerRun over the warm hot paths) skip under -race: the
// detector's instrumentation heap-allocates closures and shadow state, so
// allocation counts stop measuring the code under test.
package race

// Enabled reports whether the build has the race detector on.
const Enabled = false
