// Package domain implements HACC's particle domain organization: a
// structure-of-arrays particle store (paper §III), the regular 3-D block
// decomposition, particle migration, and the particle-overloading scheme of
// Fig. 4 — full replication of neighbor particles within a boundary shell,
// so the short-range solvers run entirely rank-local and the long-range
// solver needs no per-step particle communication.
//
// The communication path is a persistent ExchangePlan (PR 3), built once in
// New from the catch geometry: Migrate and Refresh send one packed message
// per 26-stencil neighbor leg and split into Begin/End halves so core can
// hide the exchange behind computation. MigrateDense keeps a dense
// all-to-all for moves of any distance (rebalance, restore); oracle_test.go
// holds the dense refresh the planned legs are checked against. RefreshOrigins
// records the owner of every passive replica segment, which is what lets
// the analysis layer stitch cross-rank halos without re-deriving ownership
// (PR 4), and SetOrigins installs those segments back from a checkpoint's
// replica container (PR 5). Positions are global grid cells; momenta are
// p = a²ẋ in grid
// units per 1/H0 (see DESIGN.md); single precision throughout, per HACC's
// mixed-precision design.
package domain
