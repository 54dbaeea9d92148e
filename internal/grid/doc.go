// Package grid provides distributed scalar fields on a regular 3-D mesh
// with a block domain decomposition, periodic ghost-cell exchange, and
// Cloud-In-Cell (CIC) particle deposit/interpolation (Hockney & Eastwood
// 1988), the grid layer under HACC's spectral particle-mesh solver (paper
// §II).
//
// The ghost exchange is a persistent Exchanger, which is one pfft plan:
// from the decomposition's layout padded by the ghost width (a field's
// interior) to that layout's Halo (every ghost slot holds its canonical
// cell). The plan is built locally from box intersections and checked
// with one all-to-all of leg lengths; traffic flows over neighbor legs
// only. Fill runs it, Accumulate runs its transpose
// with add and then zeroes the ghosts; both split into Begin/End, and a
// GhostOp is a value, so nothing is pooled. oracle_test.go holds the dense
// all-to-all form the exchange is checked against, with its own per-cell
// lists. The deposit is the one serial DepositCIC: a threaded x-slab
// deposit measured slower than it (200 k particles on 48³, 2 cores),
// allocated on every call and made the density depend on summation order.
// The gather is threaded by particle range over par.Pool
// (InterpCICParallel), bitwise equal to InterpCIC.
package grid
