//go:build !amd64 || hacc_noasm

package shortrange

// applyRangesDispatch routes ApplyRanges to the portable tiled Go kernel on
// non-amd64 hosts, or anywhere when the `hacc_noasm` build tag disables the
// assembly bodies (kernel_amd64.go) — the escape hatch that also lets
// benchmarks compare the implementations.
func applyRangesDispatch(k *Kernel, lx, ly, lz, px, py, pz []float32, ranges [][2]int32, ax, ay, az []float32) int64 {
	return applyRangesTiled(k, lx, ly, lz, px, py, pz, ranges, ax, ay, az)
}

// buildKernelConsts is a no-op without the assembly kernel.
func buildKernelConsts(k *Kernel) {}

// KernelISA names the short-range kernel body ApplyRanges runs: always the
// portable tiled Go loop in this build.
func KernelISA() string { return "portable" }
