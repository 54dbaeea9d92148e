// Package ic generates Zel'dovich initial conditions: a Gaussian random
// density field drawn from a linear power spectrum, converted to a
// displacement field in k-space, applied to a uniform particle lattice.
// Mode amplitudes come from a deterministic per-mode hash, so the same
// seed produces the same Universe on any rank count and any decomposition.
//
// Generate runs once per simulation but is most of set-up's time, so it
// does each piece of work once: δ̂ₖ (an amplitude √P(k) and a modeGaussian
// draw per mode, the amplitude looked up in a spectral.RadialTable, so one
// LinearPower.P serves all modes of one sign-folded |k|) is built once and
// scaled by i·k_d/k² for each of the three displacement axes, which share
// one redistribution plan, one ghost exchanger and one field.
// oracle_test.go keeps the earlier three-pass form, and the particles are
// pinned bitwise against it.
package ic
