package shortrange

import (
	"math"
	"unsafe"
)

// The amd64 range kernel is hand-vectorized assembly — the x86 reproduction
// of the paper's QPX kernel (§III) — in two bodies beside the portable Go
// one, all three one numerics:
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
// low half first, then high half — which is the summation order
// applyRangesPortable writes out in Go. All three bodies therefore agree
// bit for bit on every span (TestFsrSpanBitExact, TestRangeBodiesAgree).
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

func hostRangeBodies() []rangeBody {
	bodies := []rangeBody{{"portable", applyRangesPortable}, {"sse2", asmBody(fsrRangesSSE)}}
	if hasAVX2() {
		bodies = append(bodies, rangeBody{"avx2", asmBody(fsrRangesAVX2)})
	}
	return bodies
}

// asmBody adapts an assembly body to the rangeBody signature: one call per
// ApplyRanges, which has already checked that the target and span lists
// are non-empty and in bounds.
func asmBody(fn func(lx, ly, lz *float32, nt int64, px, py, pz *float32, ranges *[2]int32, nr int64, ax, ay, az, kc *float32)) func(k *Kernel, lx, ly, lz, px, py, pz []float32, ranges [][2]int32, ax, ay, az []float32) {
	return func(k *Kernel, lx, ly, lz, px, py, pz []float32, ranges [][2]int32, ax, ay, az []float32) {
		fn(&lx[0], &ly[0], &lz[0], int64(len(lx)), &px[0], &py[0], &pz[0],
			&ranges[0], int64(len(ranges)), &ax[0], &ay[0], &az[0], k.kc)
	}
}
