//go:build !hacc_noasm

package shortrange

import (
	"math"
	"unsafe"
)

// The amd64 range kernel is hand-vectorized assembly — the x86 reproduction
// of the paper's QPX kernel (§III) — in two bodies behind one numerics:
//
//   - fsrRangesSSE: 4 neighbors per 128-bit SSE2 vector (baseline amd64, no
//     GOAMD64 level needed);
//   - fsrRangesAVX2: 8 neighbors per 256-bit vector, VEX three-operand so no
//     register copies, and no FMA.
//
// Per lane both reproduce the pure-Go helpers operation for operation: the
// bit-level rsqrt estimate (integer shift/subtract on the float lanes),
// three Newton refinements in rsqrt's order, the Horner poly5, and the
// cutoff as a compare mask ANDed into the force. Both accumulate d·f into
// the same four 128-bit lane sums — the AVX2 body folds each 8-wide product
// low half first, then high half — so lane L sums neighbors j≡L (mod 4) in
// index order whatever the vector width, the per-span reduce is
// (l0+l2)+(l1+l3), and the ≤3 tail neighbors are added after it in index
// order. The two bodies therefore agree bit for bit on every span
// (TestRangeBodiesBitExact, TestRangeBodiesAgree); against the scalar
// oracle only the accumulation association differs (TestApplyRangesULPBound).
//
// Unlike the paper's branch-free fsel kernel, each vector tests its cutoff
// mask right after s = dx²+dy²+dz² and skips the rsqrt/Horner/accumulate
// tail when no lane is inside r_cut. That is exact: a masked term is ±0 and
// a lane sum is never −0 (it starts at +0, and round-to-nearest never
// produces −0 from a sum with a +0 or nonzero operand), so adding it changes
// nothing. The A2 core was in-order; on out-of-order x86 the walks'
// leaf-contiguous spans make "whole neighbor leaf out of range" long,
// well-predicted runs.
//
// One call covers a whole ApplyRanges: the target loop, the span loop and
// the tails all run in assembly. The body is picked once at init from CPUID.
// Build with `hacc_noasm` for the portable tiled Go kernel.

// kcGroups is the layout of the broadcast-constant table both bodies read:
// 12 groups of 8 identical float32 lanes, 32-byte aligned so either width
// can use a group as an aligned memory operand (the SSE2 body reads the
// first 16 bytes). Group order (byte offset = 32·index):
//
//	0 magic  1 half  2 threeHalf  3 eps  4 rc2  5..10 c0..c5  11 gm
const kcGroups = 12

// buildKernelConsts fills the kernel's aligned broadcast table.
func buildKernelConsts(k *Kernel) {
	buf := make([]float32, 8*kcGroups+7)
	off := 0
	for uintptr(unsafe.Pointer(&buf[off]))%32 != 0 {
		off++
	}
	t := buf[off : off+8*kcGroups]
	vals := [kcGroups]float32{
		math.Float32frombits(0x5f3759df), 0.5, 1.5, k.eps, k.rc2,
		k.c[0], k.c[1], k.c[2], k.c[3], k.c[4], k.c[5], k.gm,
	}
	for g, v := range vals {
		for l := 0; l < 8; l++ {
			t[8*g+l] = v
		}
	}
	k.kcBuf = buf // keeps the table alive; kc points into it
	k.kc = &t[0]
}

// A rangeBody is one assembly implementation of the whole-leaf range
// kernel: for each of nt targets it walks the nr (start,end) spans over
// px/py/pz and adds gm·Σ d·f_SR to ax/ay/az. Spans must be validated by the
// caller; the bodies never read outside [start,end).
type rangeBody struct {
	isa string
	fn  func(lx, ly, lz *float32, nt int64, px, py, pz *float32, ranges *[2]int32, nr int64, ax, ay, az, kc *float32)
}

//go:noescape
func fsrRangesSSE(lx, ly, lz *float32, nt int64, px, py, pz *float32, ranges *[2]int32, nr int64, ax, ay, az, kc *float32)

//go:noescape
func fsrRangesAVX2(lx, ly, lz *float32, nt int64, px, py, pz *float32, ranges *[2]int32, nr int64, ax, ay, az, kc *float32)

// cpuid and xgetbv0 (XCR0) are the two instructions the init-time body
// choice needs; implemented in cpuid_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// state across context switches.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// rangeBodies lists the bodies this host can run, widest last; body is the
// one ApplyRanges dispatches to.
var (
	rangeBodies = hostRangeBodies()
	body        = rangeBodies[len(rangeBodies)-1]
)

func hostRangeBodies() []rangeBody {
	bodies := []rangeBody{{"sse2", fsrRangesSSE}}
	if hasAVX2() {
		bodies = append(bodies, rangeBody{"avx2", fsrRangesAVX2})
	}
	return bodies
}

// KernelISA names the short-range kernel body ApplyRanges runs on this
// host: "avx2", "sse2", or "portable" (non-amd64 and hacc_noasm builds).
// Every body is bit-identical to the others, so the name is provenance for
// timings, not for results.
func KernelISA() string { return body.isa }

// forceKernelISA makes ApplyRanges run the named body until restore is
// called; ok is false when this host cannot run it. A test hook (this
// package's ISA-equivalence tests, and core's end-to-end one through
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

// applyRangesDispatch routes ApplyRanges to the host's assembly body in one
// call per leaf. The span list is bounds-checked here, once, so the
// assembly can trust it.
func applyRangesDispatch(k *Kernel, lx, ly, lz, px, py, pz []float32, ranges [][2]int32, ax, ay, az []float32) int64 {
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
	body.fn(&lx[0], &ly[0], &lz[0], int64(nt), &px[0], &py[0], &pz[0],
		&ranges[0], int64(len(ranges)), &ax[0], &ay[0], &az[0], k.kc)
	return int64(nt) * listLen
}
