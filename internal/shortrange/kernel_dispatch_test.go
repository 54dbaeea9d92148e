//go:build !amd64 || hacc_noasm

package shortrange

import "testing"

// kernelBodyBenchmarks: the portable build has one body, already covered by
// the tiled-go and tiled-ranges sub-benchmarks.
func kernelBodyBenchmarks(*testing.B, func(*testing.B)) {}
