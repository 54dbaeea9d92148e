// Package grid provides distributed scalar fields on a regular 3-D mesh
// with a block domain decomposition, periodic ghost-cell exchange, and
// Cloud-In-Cell (CIC) particle deposit/interpolation (Hockney & Eastwood
// 1988), the grid layer under HACC's spectral particle-mesh solver (paper
// §II).
//
// The ghost exchange is a persistent Exchanger plan (PR 3): ghost-slot and
// owned-cell index lists are derived once per (decomposition, ghost width),
// traffic flows over neighbor legs only, and both directions (Accumulate
// for deposit spill, Fill for interpolation halos) split into Begin/End
// with pooled GhostOp handles; the dense paths survive as oracles. The
// deposit is the one serial DepositCIC: a threaded x-slab deposit measured
// slower than it (200 k particles on 48³, 2 cores), allocated on every call
// and made the density depend on summation order. The gather is threaded by particle
// range over par.Pool (InterpCICParallel), bitwise equal to InterpCIC.
package grid
