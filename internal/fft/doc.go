// Package fft provides fast Fourier transforms of arbitrary length, built
// from scratch: a mixed-radix Cooley-Tukey decomposition with specialized
// radix-2/3/4 butterflies, generic small-prime butterflies, and Bluestein's
// chirp-z algorithm for lengths containing large prime factors. HACC
// deliberately avoids vendor FFT libraries (paper §I); this package plays
// the role of its hand-rolled FFT. The real-to-complex path
// (ForwardReal/InverseReal and their batch forms) runs the packed
// half-length complex transform for even n, which is what the distributed
// half-spectrum pipeline in pfft builds on.
//
// A plan is everything that does not depend on the data. NewPlan factors n
// (4s first, then 2, 3, 5, 7, the remaining primes up to 31, a Bluestein
// cofactor last) and precomputes the digit-reversal gather permutation and,
// per factor, a contiguous table of exactly the twiddles that stage
// multiplies by. A transform is then one gather pass — fused into the first
// stage for the power-of-two lengths — and one loop per stage from the
// innermost factor out, the last stage storing into the caller's row; the
// inverse conjugates in the gather and conjugates and scales in the last
// store. The batch calls take scratch once per batch.
//
// This is the decimation-in-time recursion the package started with,
// rescheduled: every butterfly combines the same operands with the same
// twiddles through the same expressions, only level by level instead of
// depth first, so results are bit-identical to it for every length. The
// recursion survives in oracle_test.go and TestPlanMatchesReference and
// FuzzPlanBitExact hold the plan to it; the seed-42 goldens of the whole
// simulation depend on that, so a change here must keep the factor order,
// the butterfly expressions, the (ac−bd, ad+bc) complex product, the
// multiplies by the unit twiddle (1, −0), and use no fused multiply-add.
//
// A Plan is immutable after creation and safe for concurrent use by
// multiple goroutines; per-call scratch comes from an internal pool.
//
// Plan3 is the serial 3-D transform: z rows, then y lines, then x lines,
// one independent 1-D transform each. Its production caller is the
// short-range kernel fit's point-source PM solve, which uses the index-set
// forms of the one loop: ForwardSparse skips the lines an input that is +0
// outside a few z rows leaves all +0 (only when the plan maps a +0 row to
// +0 bits, which Bluestein lengths need not), and InverseBox transforms
// only the lines a box of outputs depends on. Both give Forward's and
// Inverse's bits where they promise them. Tests use Plan3 as the serial
// oracle of pfft's distributed transforms. A Plan3 owns its transpose tile
// and is not safe for concurrent use.
package fft
