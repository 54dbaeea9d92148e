package shortrange

import "math"

// Kernel evaluates the short-range pair force on contiguous neighbor lists.
// It is shared by the RCB-tree and P3M backends.
type Kernel struct {
	RCut float64    // matching radius in grid cells (paper: 3 cells + margin)
	Poly [6]float64 // the fitted grid-force coefficients it was built from
	rc2  float32
	eps  float32
	gm   float32
	c    [6]float32 // poly5 coefficients, ascending powers of s

	// Broadcast-constant table for the assembly range kernels: kc points at
	// the 32-byte-aligned start of kcBuf (nil off amd64). See
	// buildKernelConsts in kernel_amd64.go for the layout.
	kc    *float32
	kcBuf []float32

	// GM is the pair coupling g·m = (3/2)Ωm·m/(4π): acceleration of i is
	// GM·Σ_j (x_j−x_i)·f_SR(s_ij) for equal particle masses m.
	GM float64
}

// RangeKernel is the copy-free kernel signature: neighbors are named by
// (start,end) spans over the caller's SoA coordinate arrays px/py/pz
// instead of being gathered into a contiguous list. Implemented by
// Kernel.ApplyRanges; consumed by the force driver, Pairs.Run.
type RangeKernel func(lx, ly, lz, px, py, pz []float32, ranges [][2]int32, ax, ay, az []float32) int64

// NewKernel builds a kernel from fitted grid-force coefficients. eps is the
// Plummer-like softening added to s (in cells², short-distance cutoff ε of
// eq. 7); gm is the pair coupling g·m.
func NewKernel(poly [6]float64, rcut, eps, gm float64) *Kernel {
	k := &Kernel{RCut: rcut, Poly: poly, GM: gm}
	k.rc2 = float32(rcut * rcut)
	k.eps = float32(eps)
	k.gm = float32(gm)
	for i, c := range poly {
		k.c[i] = float32(c)
	}
	buildKernelConsts(k)
	return k
}

// rsqrt is the reciprocal square root via the classic bit-level estimate
// refined by three Newton iterations — the same estimate-and-refine
// structure as the BG/Q kernel's hardware rsqrt path (§III).
func rsqrt(x float32) float32 {
	i := math.Float32bits(x)
	i = 0x5f3759df - i>>1
	y := math.Float32frombits(i)
	y *= 1.5 - float32(0.5*x*y*y)
	y *= 1.5 - float32(0.5*x*y*y)
	y *= 1.5 - float32(0.5*x*y*y)
	return y
}

// The short-range force factor f_SR(s) = (s+ε)^(−3/2) − poly5(s), zero at
// and beyond r_cut², is evaluated everywhere — FSR and the portable range
// body — as the same three single-sourced inlined helpers:
//
//	f := (rsqrt3(s+eps) - poly5(s, c0..c5)) * cutMask(s, rc2)
//
// so neither the fitted polynomial nor the Newton refinement can drift
// between paths. A single fused helper would blow the compiler's inlining
// budget (rsqrt alone costs 65 of the 80-unit allowance), so the seams sit
// between the three sub-expressions; each helper must stay inlinable
// (verify with `go build -gcflags=-m ./internal/shortrange/`).
//
// Every product that feeds an add or a subtract is rounded explicitly with
// float32(...): Go may otherwise fuse x*y+z into one FMA (it does on arm64,
// loong64, ppc64le, riscv64 and s390x), and the assembly bodies round each
// multiply separately.

// rsqrt3 returns x^(−3/2) via the refined reciprocal square root: the
// Newtonian part of the force expression.
func rsqrt3(x float32) float32 {
	r := rsqrt(x)
	return float32(r * r * r)
}

// poly5 evaluates the fitted quintic in s (ascending coefficients, Horner
// form): the grid-force residual subtracted from the Newtonian part.
func poly5(s, c0, c1, c2, c3, c4, c5 float32) float32 {
	return c0 + float32(s*(c1+float32(s*(c2+float32(s*(c3+float32(s*(c4+float32(s*c5)))))))))
}

// cutMask returns 1.0 when s < rc2 and 0.0 otherwise, branchlessly: the
// sign bit of s−rc2 broadcast over the bit pattern of 1.0 gives a 0/1
// multiplier — the same data-path select as the QPX fsel trick of §III,
// keeping the Go inner loop free of data-dependent branches. (The amd64
// assembly bodies keep the select and add a per-vector early-out in front
// of it; see kernel_amd64.go.)
func cutMask(s, rc2 float32) float32 {
	return math.Float32frombits(uint32(int32(math.Float32bits(s-rc2))>>31) & 0x3f800000)
}

// FSR returns the scalar short-range force factor f_SR(s) (force vector is
// GM·r_vec·f_SR). Exposed for tests and error analysis; the scalar oracle
// for the range bodies.
func (k *Kernel) FSR(s float32) float32 {
	return (rsqrt3(s+k.eps) - poly5(s, k.c[0], k.c[1], k.c[2], k.c[3], k.c[4], k.c[5])) * cutMask(s, k.rc2)
}

// A rangeBody is one implementation of the whole-leaf range kernel: for
// each target it walks the (start,end) spans over px/py/pz and adds
// gm·Σ d·f_SR to ax/ay/az. Spans are validated by ApplyRanges; the bodies
// never read outside [start,end). Every body sums in the same order (see
// applyRangesPortable), so they are one numerics at different widths.
type rangeBody struct {
	isa string
	fn  func(k *Kernel, lx, ly, lz, px, py, pz []float32, ranges [][2]int32, ax, ay, az []float32)
}

// rangeBodies lists the bodies this host can run, the portable Go body
// first and the widest last; body is the one ApplyRanges dispatches to.
var (
	rangeBodies = hostRangeBodies()
	body        = rangeBodies[len(rangeBodies)-1]
)

// KernelISA names the short-range kernel body ApplyRanges runs on this
// host: "avx2" or "sse2" on amd64, "portable" elsewhere. Every body is
// bit-identical to the others, so the name is provenance for timings, not
// for results.
func KernelISA() string { return body.isa }

// forceKernelISA makes ApplyRanges run the named body until restore is
// called; ok is false when this host cannot run it. A test hook (this
// package's body-equivalence tests, and core's end-to-end one through
// go:linkname), not a user option: it must not be called while a kernel is
// running.
func forceKernelISA(isa string) (restore func(), ok bool) {
	for _, b := range rangeBodies {
		if b.isa == isa {
			prev := body
			body = b
			return func() { body = prev }, true
		}
	}
	return func() {}, false
}

// ApplyRanges is the copy-free production kernel entry point: neighbors are
// (start,end) spans over the caller's SoA working arrays (the tree's
// leaf-contiguous coordinates, the mesh's cell-sorted copy), so the walk
// passes index ranges instead of gathering O(27·cell) coordinates per leaf.
// Per target the spans are visited in order. It returns the number of pair
// interactions, targets × total span length.
//
// The span list is bounds-checked here, once, so the body can trust it; the
// body is the host's widest (KernelISA). All bodies share one summation
// order, so results do not depend on the host's vector width
// (TestRangeBodiesAgree), and per-pair terms are bit-identical to FSR
// (TestFsrSpanBitExact, randomized-fsr-sweep).
func (k *Kernel) ApplyRanges(lx, ly, lz, px, py, pz []float32, ranges [][2]int32, ax, ay, az []float32) int64 {
	nt := len(lx)
	ly = ly[:nt]
	lz = lz[:nt]
	ax = ax[:nt]
	ay = ay[:nt]
	az = az[:nt]
	var listLen int64
	for _, r := range ranges {
		listLen += int64(len(px[r[0]:r[1]]))
		_ = py[r[0]:r[1]]
		_ = pz[r[0]:r[1]]
	}
	if nt == 0 || listLen == 0 {
		return 0
	}
	body.fn(k, lx, ly, lz, px, py, pz, ranges, ax, ay, az)
	return int64(nt) * listLen
}
