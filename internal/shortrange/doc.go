// Package shortrange implements HACC's short/close-range force machinery
// (paper §II–III): the polynomial-residual pair kernel
//
//	f_SR(s) = (s+ε)^(−3/2) − poly5(s),   s = r·r,  zero beyond r_cut,
//
// the numeric construction of poly5 by sampling the filtered PM grid force
// of a point source and least-squares fitting (the paper's force-matching
// procedure), and a P3M chaining-mesh evaluator (the Roadrunner-style
// direct particle-particle solver used as the second short-range backend).
// PR 1 made the mesh persistent: Rebuild re-bins in place (retaining CSR
// offsets, accumulators, and per-worker walk scratch) and
// ComputeForcesPoolRanges runs the pair kernel over par.Pool with a shared
// atomic cell cursor.
//
// PR 7 made the kernel copy-free and vector-shaped (the paper's §III BG/Q
// shaping, on x86 terms): production walks call Kernel.ApplyRanges with
// ordered (start,end) spans over the SoA working arrays instead of
// gathering neighbor coordinates (the mesh's z-contiguous CSR layout folds
// the 27-cell stencil into ≤9 spans, see cellLoopRanges), and the inner
// loop dispatches to an assembly kernel on amd64 (build tag hacc_noasm opts
// out) or a bounds-check-free 4-wide tiled Go loop elsewhere. The copy path
// (Apply) remains as the scalar oracle.
//
// PR 12 rebuilt the amd64 kernel as two bodies with one numerics: SSE2 (4
// neighbors per vector) and AVX2 (8 per vector, no FMA, products folded
// into the same four lane sums low half first), picked once at init from
// CPUID and named by KernelISA. Each vector tests its r_cut mask before the
// rsqrt/Horner tail and skips it when no lane is in range — exact, and a
// deliberate departure from the paper's branch-free fsel kernel — and one
// assembly call covers a whole leaf (targets, spans and tails). The bodies
// are bit-identical to each other and to the previous SSE2 kernel; see
// DESIGN.md "Short-range kernel" for the equivalence model and measured
// ns/interaction.
package shortrange
