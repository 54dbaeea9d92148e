//go:build !amd64

package shortrange

// hostRangeBodies: without assembly bodies, ApplyRanges runs the portable
// Go body.
func hostRangeBodies() []rangeBody {
	return []rangeBody{{"portable", applyRangesPortable}}
}

// buildKernelConsts is a no-op without the assembly bodies.
func buildKernelConsts(k *Kernel) {}
