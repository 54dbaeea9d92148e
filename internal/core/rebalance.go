package core

import (
	"fmt"
	"math"

	"hacc/internal/balance"
	"hacc/internal/domain"
	"hacc/internal/grid"
	"hacc/internal/mpi"
	"hacc/internal/obs"
	"hacc/internal/spectral"
)

// minSlabWidth is the narrowest slab a rebalance may produce, in cells: the
// overload shell plus the CIC+drift ghost must fit inside one slab so the
// field ghost geometry and the planned 26-stencil exchange keep their
// one-neighbor-deep structure. Identical to the field ghost width chosen in
// newSimulation.
func (s *Simulation) minSlabWidth() int { return int(math.Ceil(s.Cfg.Overload)) + 2 }

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
// cannot all reach minSlabWidth) reports unchanged. Collective.
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

	minW := s.minSlabWidth()
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
		if !equalCuts(cuts[d], s.Dec.Cuts()[d]) {
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

func equalCuts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameCuts reports whether two cut-array triples are identical.
func sameCuts(a, b [3][]int) bool {
	return equalCuts(a[0], b[0]) && equalCuts(a[1], b[1]) && equalCuts(a[2], b[2])
}

// validCuts checks checkpoint-recorded cut arrays against the grid and
// process-grid shape, returning an error instead of the panic
// grid.NewDecompCuts would raise on malformed input.
func validCuts(cuts [3][]int, n, dims [3]int) error {
	for d := 0; d < 3; d++ {
		cs := cuts[d]
		if len(cs) != dims[d]+1 {
			return fmt.Errorf("axis %d has %d cut boundaries, want %d", d, len(cs), dims[d]+1)
		}
		if cs[0] != 0 || cs[dims[d]] != n[d] {
			return fmt.Errorf("axis %d cuts %v do not span [0,%d]", d, cs, n[d])
		}
		for c := 0; c < dims[d]; c++ {
			if cs[c] >= cs[c+1] {
				return fmt.Errorf("axis %d cuts %v not strictly increasing", d, cs)
			}
		}
	}
	return nil
}

// RebalanceTo moves the run onto the given slab geometry: rebuild the
// decomposition and every structure bound to it, reassign each particle to
// its new geometric owner, and rebuild the overload replicas. The global
// particle state is untouched — a rebalance is a pure repartition, exact on
// the ID-sorted particle state. Collective; cuts must be identical on every
// rank and satisfy grid.NewDecompCuts.
func (s *Simulation) RebalanceTo(cuts [3][]int) {
	s.Timers.Time(obs.SpanRebalance, func() { s.rebalanceTo(cuts) })
	s.Counters.Rebalances++
}

func (s *Simulation) rebalanceTo(cuts [3][]int) {
	// A deferred refresh reads the old geometry's plan; finish it first.
	s.FinishRefresh()
	s.adoptGeometry(cuts)
	// Reassign actives to their owners under the new cuts. A cut may move a
	// boundary many cells, far beyond the one-neighbor-deep planned stencil,
	// so this is the dense path. The migration count is drift bookkeeping,
	// not repartition traffic: put it back.
	mig := s.Dom.Migrated
	s.Dom.MigrateDense()
	s.Dom.Migrated = mig
	s.Dom.Refresh()
}

// adoptGeometry rebuilds the decomposition, domain, fields, exchangers, and
// Poisson plan for the given cuts, carrying the active particle storage
// over. Analysis plans bind the old domain and are dropped for lazy rebuild.
// Shared by the live rebalance and by Restore (which adopts a checkpoint's
// recorded geometry before loading particle blocks).
func (s *Simulation) adoptGeometry(cuts [3][]int) {
	n := s.Dec.N
	dec := grid.NewDecompCuts(n, s.Dec.Dims, cuts)
	dom := domain.New(s.Comm, dec, s.Cfg.Overload)
	dom.Active = s.Dom.Active
	dom.Migrated = s.Dom.Migrated
	s.Dec = dec
	s.Dom = dom

	ghost := s.minSlabWidth()
	box := dec.Box(s.Comm.Rank())
	s.rho = grid.NewField(n, box, ghost)
	s.rhoEx = grid.NewExchanger(s.Comm, dec, s.rho)
	for d := 0; d < 3; d++ {
		s.acc[d] = grid.NewField(n, box, ghost)
	}
	s.accEx[0] = grid.NewExchanger(s.Comm, dec, s.acc[0])
	s.accEx[1] = s.accEx[0]
	s.accEx[2] = s.accEx[0]
	s.poisson = spectral.NewPoisson(s.Comm, dec, spectral.Options{
		OmegaM: s.Cfg.Cosmo.OmegaM,
		Sigma:  s.Cfg.Sigma,
		Ns:     s.Cfg.NsFilter,
		Filter: !s.Cfg.DisableFilter,
		Pool:   s.pool,
	})
	s.fof = nil
	s.power = nil
	if s.Cfg.AnalysisEvery > 0 {
		s.ensureAnalysis(s.Cfg.AnalysisBins)
	}
}

// Imbalance returns the balancer's current smoothed max/mean cost ratio
// (1 when balancing is disabled or the model is cold).
func (s *Simulation) Imbalance() float64 {
	if s.balancer == nil {
		return 1
	}
	return s.balancer.Imbalance()
}
