// Package shortrange implements HACC's short/close-range force machinery
// (paper §II–III): the polynomial-residual pair kernel
//
//	f_SR(s) = (s+ε)^(−3/2) − poly5(s),   s = r·r,  zero beyond r_cut,
//
// the numeric construction of poly5 by sampling the filtered PM grid force
// of a point source and least-squares fitting (the paper's force-matching
// procedure), and the one force driver both local solvers run on. The fit
// comes in two steps, so its source solves can be shared out:
// SampleGridForce measures one part's share of the source offsets (every
// part replays the one seeded stream), FitSamples fits all shares' samples
// in offset order, and FitGridForce is the one-part case.
//
// Pairs is that driver: it owns the working copy of the particles (Load
// gathers the caller's sets into it), the accelerations, the Orig map back
// to the loaded order, and one pooled loop (Run) whose workers pull blocks
// from a shared atomic cursor. A solver is a Blocks index over the
// driver's arrays: the RCB tree (package tree, the BG/Q configuration) or
// ChainingMesh here (the P3M direct particle-particle solver HACC runs on
// accelerated systems like Roadrunner). Block names a block's neighbours as
// ordered (start,end) spans over the SoA working arrays, which
// Kernel.ApplyRanges consumes without gathering coordinates; the mesh's
// z-contiguous CSR layout folds the 27-cell stencil into ≤9 spans.
//
// ApplyRanges runs one of three range bodies with one numerics: the
// portable Go body (applyRangesPortable), and on amd64 SSE2 (4 neighbors
// per vector) and AVX2 (8 per vector, no FMA). The widest one the CPU runs
// is picked once at init from CPUID and named by KernelISA. All three sum
// each target's terms in the same order — four lane sums per span over its
// 4-blocks, reduced as (l0+l2)+(l1+l3), then the tail in index order — so
// they agree bit for bit on any span list. Each assembly vector tests its
// r_cut mask before the rsqrt/Horner tail and skips it when no lane is in
// range — exact, and a deliberate departure from the paper's branch-free
// fsel kernel — and one assembly call covers a whole leaf (targets, spans
// and tails). See DESIGN.md "Short-range kernel" for the summation order
// and measured ns/interaction.
package shortrange
