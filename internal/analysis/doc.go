// Package analysis is the distributed in-situ analysis subsystem: the
// science-facing measurements the paper's sky-survey workload produces at
// scale without writing raw particle dumps — matter power spectra
// (Fig. 10), FOF halos and sub-halos (Fig. 11), the halo mass function
// (§V), the two-point correlation function, and density-field statistics.
//
// The two production paths are persistent plans in the style of the
// exchange and spectral layers (PR 4): analysis.Plan runs rank-local FOF
// over z-sorted (x, y) columns of side ≥ b, with O(n + columns) scratch,
// stitches halos that cross rank boundaries by sending boundary-replica
// (particle ID, group key) pairs back to their owners over the domain's
// 26-stencil neighbor legs, and resolves global group IDs with a small
// gathered union-find; analysis.Power bins P(k) directly on the half
// spectrum of the Poisson solver's own r2c transform
// (spectral.Poisson.Spectrum), so a measurement costs one planned
// real-to-complex transform and a rank holds one spectral plan. Both plans
// are built once, hold all their scratch, and allocate nothing warm on one
// rank. The serial
// estimators they are checked against are test code: the full
// complex-spectrum P(k) (power_oracle_test.go) and the FOF finders
// (fof_oracle_test.go), which link all pairs by brute force and so share
// no binning logic with the Plan.
package analysis
