package shortrange

import "math"

// Kernel evaluates the short-range pair force on contiguous neighbor lists.
// It is shared by the RCB-tree and P3M backends.
type Kernel struct {
	RCut float64 // matching radius in grid cells (paper: 3 cells + margin)
	rc2  float32
	eps  float32
	gm   float32
	c    [6]float32 // poly5 coefficients, ascending powers of s

	// Broadcast-constant table for the assembly range kernels: kc points at
	// the 32-byte-aligned start of kcBuf (nil without the asm build). See
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
// Kernel.ApplyRanges; consumed by the range-walking entry points of
// ChainingMesh and tree.Tree.
type RangeKernel func(lx, ly, lz, px, py, pz []float32, ranges [][2]int32, ax, ay, az []float32) int64

// NewKernel builds a kernel from fitted grid-force coefficients. eps is the
// Plummer-like softening added to s (in cells², short-distance cutoff ε of
// eq. 7); gm is the pair coupling g·m.
func NewKernel(poly [6]float64, rcut, eps, gm float64) *Kernel {
	k := &Kernel{RCut: rcut, GM: gm}
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
	y *= 1.5 - 0.5*x*y*y
	y *= 1.5 - 0.5*x*y*y
	y *= 1.5 - 0.5*x*y*y
	return y
}

// The short-range force factor f_SR(s) = (s+ε)^(−3/2) − poly5(s), zero at
// and beyond r_cut², is evaluated everywhere — FSR, Apply, the tiled range
// kernel — as the same three single-sourced inlined helpers:
//
//	f := (rsqrt3(s+eps) - poly5(s, c0..c5)) * cutMask(s, rc2)
//
// so neither the fitted polynomial nor the Newton refinement can drift
// between paths. A single fused helper would blow the compiler's inlining
// budget (rsqrt alone costs 62 of the 80-unit allowance), so the seams sit
// between the three sub-expressions; each helper must stay inlinable
// (verify with `go build -gcflags=-m ./internal/shortrange/`).

// rsqrt3 returns x^(−3/2) via the refined reciprocal square root: the
// Newtonian part of the force expression.
func rsqrt3(x float32) float32 {
	r := rsqrt(x)
	return r * r * r
}

// poly5 evaluates the fitted quintic in s (ascending coefficients, Horner
// form): the grid-force residual subtracted from the Newtonian part.
func poly5(s, c0, c1, c2, c3, c4, c5 float32) float32 {
	return c0 + s*(c1+s*(c2+s*(c3+s*(c4+s*c5))))
}

// cutMask returns 1.0 when s < rc2 and 0.0 otherwise, branchlessly: the
// sign bit of s−rc2 broadcast over the bit pattern of 1.0 gives a 0/1
// multiplier — the same data-path select as the QPX fsel trick of §III,
// keeping the Go inner loops free of data-dependent branches. (The amd64
// assembly bodies keep the select and add a per-vector early-out in front
// of it; see kernel_amd64.go.)
func cutMask(s, rc2 float32) float32 {
	return math.Float32frombits(uint32(int32(math.Float32bits(s-rc2))>>31) & 0x3f800000)
}

// FSR returns the scalar short-range force factor f_SR(s) (force vector is
// GM·r_vec·f_SR). Exposed for tests and error analysis; the scalar oracle
// for the batched kernels.
func (k *Kernel) FSR(s float32) float32 {
	return (rsqrt3(s+k.eps) - poly5(s, k.c[0], k.c[1], k.c[2], k.c[3], k.c[4], k.c[5])) * cutMask(s, k.rc2)
}

// Apply computes the short-range force of every neighbor on every target,
// accumulating accelerations; it returns the number of pair interactions.
// The inner loop is 2-way unrolled with the cutoff folded in as a select
// rather than a branch on the data path, mirroring the fsel-based
// vectorization of the BG/Q kernel (§III). Apply is the copy-list scalar
// oracle; production walks use ApplyRanges.
func (k *Kernel) Apply(lx, ly, lz, nx, ny, nz, ax, ay, az []float32) int64 {
	rc2, eps, gm := k.rc2, k.eps, k.gm
	c0, c1, c2, c3, c4, c5 := k.c[0], k.c[1], k.c[2], k.c[3], k.c[4], k.c[5]
	n := len(nx)
	ny = ny[:n]
	nz = nz[:n]
	for i := range lx {
		xi, yi, zi := lx[i], ly[i], lz[i]
		var sx, sy, sz float32
		j := 0
		for ; j+1 < n; j += 2 {
			dx0 := nx[j] - xi
			dy0 := ny[j] - yi
			dz0 := nz[j] - zi
			dx1 := nx[j+1] - xi
			dy1 := ny[j+1] - yi
			dz1 := nz[j+1] - zi
			s0 := dx0*dx0 + dy0*dy0 + dz0*dz0
			s1 := dx1*dx1 + dy1*dy1 + dz1*dz1
			f0 := (rsqrt3(s0+eps) - poly5(s0, c0, c1, c2, c3, c4, c5)) * cutMask(s0, rc2)
			f1 := (rsqrt3(s1+eps) - poly5(s1, c0, c1, c2, c3, c4, c5)) * cutMask(s1, rc2)
			sx += dx0*f0 + dx1*f1
			sy += dy0*f0 + dy1*f1
			sz += dz0*f0 + dz1*f1
		}
		if j < n {
			dx := nx[j] - xi
			dy := ny[j] - yi
			dz := nz[j] - zi
			s := dx*dx + dy*dy + dz*dz
			f := (rsqrt3(s+eps) - poly5(s, c0, c1, c2, c3, c4, c5)) * cutMask(s, rc2)
			sx += dx * f
			sy += dy * f
			sz += dz * f
		}
		ax[i] += gm * sx
		ay[i] += gm * sy
		az[i] += gm * sz
	}
	return int64(len(lx)) * int64(n)
}

// ApplyRanges is the copy-free production kernel entry point: neighbors are
// (start,end) spans over the caller's SoA working arrays (the tree's
// leaf-contiguous coordinates, the mesh's cell-sorted copy), so the walk
// passes index ranges instead of gathering O(27·cell) coordinates per leaf.
// Per target the spans are visited in order. The portable tiled kernel
// accumulates each target sequentially across spans, so splitting or
// coalescing spans is bitwise invisible to it (TestTiledSplitInvariance);
// the amd64 assembly bodies (SSE2 and AVX2, bit-identical to each other)
// reduce four neighbor lanes per span, so their span structure moves
// results only within the documented ULP model. Either way, equivalence to
// the scalar oracle is ULP-bounded, pinned by TestApplyRangesULPBound;
// per-pair terms are bit-identical to FSR on every path
// (TestFsrSpanBitExact, randomized-fsr-sweep).
func (k *Kernel) ApplyRanges(lx, ly, lz, px, py, pz []float32, ranges [][2]int32, ax, ay, az []float32) int64 {
	return applyRangesDispatch(k, lx, ly, lz, px, py, pz, ranges, ax, ay, az)
}
