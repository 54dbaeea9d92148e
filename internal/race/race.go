//go:build race

// Package race reports whether the binary was built with the race detector,
// for tests whose pins it invalidates: under it sync.Pool drops items at
// random and the instrumentation itself allocates, so allocation-count pins
// are meaningless.
package race

// Enabled reports that the race detector is active.
const Enabled = true
