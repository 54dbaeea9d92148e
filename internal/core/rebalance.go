package core

import (
	"slices"

	"hacc/internal/balance"
	"hacc/internal/grid"
	"hacc/internal/mpi"
	"hacc/internal/obs"
)

// observeCost folds this step's work into the balancer's cost model. The
// cost is the deterministic counter delta — kernel interactions plus
// tree-walk node visits since the last observation — not wall-clock: the
// counters are bitwise reproducible across runs and schedules, so every
// rank derives the identical cost vector and the collective rebalance
// decision cannot diverge. (Wall-clock imbalance is still reported, by the
// bench layer, from the phase clock's Busy.) Collective when the balancer
// is enabled.
func (s *Simulation) observeCost() {
	if s.balancer == nil {
		return
	}
	inter, walk := s.Counters.KernelInteractions, s.Counters.WalkNodes
	cost := float64(inter-s.lastInter) + float64(walk-s.lastWalk)
	s.lastInter, s.lastWalk = inter, walk
	s.balancer.Observe(s.Comm, cost)
}

// maybeRebalance fires a cost-driven rebalance when the smoothed max/mean
// imbalance has crossed the configured threshold. Runs at the top of step,
// before any physics, so a step never straddles two geometries. Collective:
// the decision is a pure function of collective model state.
func (s *Simulation) maybeRebalance() {
	if s.balancer == nil || !s.balancer.ShouldRebalance(s.StepIndex) {
		return
	}
	cuts, changed := s.costCuts()
	// Record the fire even when the computed cuts are infeasible or already
	// in place: the model resets and the MinSteps guard engages, so the
	// trigger cannot spin every step on a geometry it cannot improve.
	s.balancer.Fired(s.StepIndex)
	if !changed {
		return
	}
	s.RebalanceTo(cuts)
}

// costCuts builds cost-weighted per-axis cell histograms — each rank spreads
// its smoothed step cost uniformly over its active particles' cells — and
// equal-cost-partitions each decomposed axis. Returns the new cut arrays and
// whether they differ from the current geometry; an infeasible axis (slabs
// cannot all reach ghostWidth) reports unchanged. Collective.
func (s *Simulation) costCuts() ([3][]int, bool) {
	n := s.Dec.N
	dims := s.Dec.Dims
	a := &s.Dom.Active
	var w float64
	if a.Len() > 0 {
		w = s.balancer.Costs()[s.Comm.Rank()] / float64(a.Len())
	}
	// One flat buffer for all three axes: a single reduction. The fold order
	// inside AllReduce is rank order, identical everywhere, so the summed
	// histogram — and the cuts derived from it — are bitwise collective.
	hist := make([]float64, n[0]+n[1]+n[2])
	hx, hy, hz := hist[:n[0]], hist[n[0]:n[0]+n[1]], hist[n[0]+n[1]:]
	for i := 0; i < a.Len(); i++ {
		hx[cellOf(a.X[i], n[0])] += w
		hy[cellOf(a.Y[i], n[1])] += w
		hz[cellOf(a.Z[i], n[2])] += w
	}
	global := mpi.AllReduce(s.Comm, hist, mpi.SumF64)

	minW := s.ghostWidth()
	var cuts [3][]int
	changed := false
	off := 0
	for d := 0; d < 3; d++ {
		h := global[off : off+n[d]]
		off += n[d]
		if dims[d] == 1 {
			cuts[d] = []int{0, n[d]}
		} else {
			nc := balance.EqualCostCuts(h, dims[d], minW)
			if nc == nil {
				return cuts, false
			}
			cuts[d] = nc
		}
		if !slices.Equal(cuts[d], s.Dec.Cuts()[d]) {
			changed = true
		}
	}
	return cuts, changed
}

// cellOf maps a wrapped coordinate to its cell index, clamped defensively
// against float edge cases (a coordinate rounding to exactly n).
func cellOf(x float32, n int) int {
	c := int(x)
	if c < 0 {
		c = 0
	}
	if c >= n {
		c = n - 1
	}
	return c
}

// RebalanceTo moves the run onto the given slab geometry: rebuild the
// decomposition and every structure bound to it, reassign each particle to
// its new geometric owner, and rebuild the overload replicas. The global
// particle state is untouched — a rebalance is a pure repartition, exact on
// the ID-sorted particle state. Collective; cuts must be identical on every
// rank and pass grid.ValidateCuts.
func (s *Simulation) RebalanceTo(cuts [3][]int) {
	s.Timers.Time(obs.SpanRebalance, func() { s.rebalanceTo(cuts) })
	s.Counters.Rebalances++
}

func (s *Simulation) rebalanceTo(cuts [3][]int) {
	// A deferred refresh reads the old geometry's plan; finish it first.
	s.FinishRefresh()
	s.bindGeometry(grid.NewDecompCuts(s.Dec.N, s.Dec.Dims, cuts))
	// Reassign actives to their owners under the new cuts. A cut may move a
	// boundary many cells, far beyond the one-neighbor-deep planned stencil,
	// so this is the dense path.
	s.Dom.MigrateDense()
	s.Dom.Refresh()
}

// Imbalance returns the balancer's current smoothed max/mean cost ratio
// (1 when balancing is disabled or the model is cold).
func (s *Simulation) Imbalance() float64 {
	if s.balancer == nil {
		return 1
	}
	return s.balancer.Imbalance()
}
