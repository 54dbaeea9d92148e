// Package grid provides distributed scalar fields on a regular 3-D mesh
// with a block domain decomposition, periodic ghost-cell exchange, and
// Cloud-In-Cell (CIC) particle deposit/interpolation (Hockney & Eastwood
// 1988), the grid layer under HACC's spectral particle-mesh solver (paper
// §II).
//
// The ghost exchange is a persistent Exchanger plan: ghost-slot and
// owned-cell runs (z-runs of consecutive storage cells, not one index per
// cell) are derived once per (decomposition, ghost width), traffic flows
// over neighbor legs only, and both directions (Accumulate for deposit
// spill, Fill for interpolation halos) split into Begin/End with pooled
// GhostOp handles; oracle_test.go holds the dense all-to-all form they are
// checked against, with its own per-cell lists. The runs are planned from
// per-axis tables (wrapped coordinate and owner process coordinate over
// the extended box), since periodic wrap and block ownership are separable
// by axis; each list is allocated once at its final length, and the runs,
// expanded cell by cell, equal the per-cell wrap + RankOf planner's lists,
// kept in oracle_test.go. The
// deposit is the one serial DepositCIC: a threaded x-slab deposit measured
// slower than it (200 k particles on 48³, 2 cores), allocated on every call
// and made the density depend on summation order. The gather is threaded by particle
// range over par.Pool (InterpCICParallel), bitwise equal to InterpCIC.
package grid
