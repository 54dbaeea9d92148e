// Package spectral implements HACC's long/medium-range force solver: a
// spectrally filtered particle-mesh method (paper §II). The "Poisson solve"
// is the composition of four k-space kernels applied inside a single
// distributed FFT:
//
//   - the isotropizing CIC-noise filter exp(−k²σ²/4)·[sinc(k/2)]^ns (eq. 5),
//   - a sixth-order periodic influence function (spectral inverse Laplacian),
//   - fourth-order Super-Lanczos spectral differencing for the gradient,
//   - the Vlasov-Poisson coupling constant (3/2)Ωm (DESIGN.md code units).
//
// Poisson is a persistent plan: it owns the pencil r2c FFT, two planned
// block↔pencil redistributions, the composed half-spectrum kernel and
// per-axis gradient tables, and all solve scratch, with every k-space loop
// pooled — a warm Solve allocates nothing on one rank. It is the rank's
// only spectral plan: Spectrum (the forward half of Solve) also serves the
// in-situ P(k) estimator. oracle_test.go
// holds the pre-plan pipeline (complex transforms, one-shot
// redistributions) that Solve is checked against.
package spectral
