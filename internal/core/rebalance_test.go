package core

import (
	"math"
	"path/filepath"
	"slices"
	"testing"

	"hacc/internal/analysis"
	"hacc/internal/domain"
	"hacc/internal/gio"
	"hacc/internal/grid"
	"hacc/internal/machine"
	"hacc/internal/mpi"
	"hacc/internal/snapshot"
)

// haloCfg is the clustered load-balancing workload: one deep Plummer halo,
// cold start, tree solver. The 24³ grid gives the equal-cost partitioner
// enough cell resolution to move a cut off the uniform boundary (at 16³ the
// half-cost prefix rounds back to the uniform cut and nothing ever changes),
// and the z = 3 → 1 six-step schedule keeps per-step drift inside the
// overload margin that narrow rebalanced slabs require (see
// ic.ClusteredOptions.ScaleRad).
func haloCfg() Config {
	return Config{
		NGrid: 24, NParticles: 24, BoxMpc: 8 * 24,
		ZInit: 3, ZFinal: 1, Steps: 6, SubCycles: 2,
		Seed: 7, Solver: PPTreePM, ICKind: "halo",
	}
}

// sameCuts reports whether two cut-array triples are identical.
func sameCuts(a, b [3][]int) bool {
	return slices.Equal(a[0], b[0]) && slices.Equal(a[1], b[1]) && slices.Equal(a[2], b[2])
}

// TestRebalanceToLossless pins the repartition contract: RebalanceTo between
// steps changes only particle ownership, never particle state — the global
// ID-sorted bit state is identical before and after, across an asymmetric
// geometry and back to uniform — and the run continues under the new
// geometry.
func TestRebalanceToLossless(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation")
	}
	const ranks = 4
	err := mpi.Run(ranks, func(c *mpi.Comm) {
		s, err := New(c, haloCfg())
		if err != nil {
			panic(err)
		}
		if err := s.Step(); err != nil {
			panic(err)
		}
		before := gatherSorted(c, &s.Dom.Active)
		uniform := s.Dec.Cuts()

		// An asymmetric geometry (the decomposition is 4 = 1×2×2 or similar;
		// shift every decomposed axis's interior cut by one cell).
		cuts := s.Dec.Cuts()
		skew := [3][]int{}
		for d := 0; d < 3; d++ {
			skew[d] = append([]int(nil), cuts[d]...)
			for j := 1; j < len(skew[d])-1; j++ {
				skew[d][j]++
			}
		}
		s.RebalanceTo(skew)
		if !sameCuts(s.Dec.Cuts(), skew) {
			t.Error("decomposition did not adopt the new cuts")
		}
		after := gatherSorted(c, &s.Dom.Active)
		if c.Rank() == 0 && !equalU64(before, after) {
			t.Error("rebalance changed the global ID-sorted particle state")
		}
		if s.Counters.Rebalances != 1 {
			t.Errorf("Rebalances = %d, want 1", s.Counters.Rebalances)
		}
		// The run keeps stepping under the non-uniform geometry.
		if err := s.Step(); err != nil {
			panic(err)
		}
		// And back to uniform: still lossless on sorted state.
		s.RebalanceTo(uniform)
		if err := s.Step(); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRebalancedMatchesStatic runs the clustered workload with the balancer
// armed and compares against the static run: the particle ID sets must
// agree exactly and the final P(k) within the documented cross-geometry
// tolerance. The deposits are layout-exact (TestPMOnlyParticlesRankCountExact);
// what differs across geometries is the short-range pair order — each
// rank's RCB tree is built over its own local set — and the reductions,
// whose recursive-doubling order follows the layout. The balancer must
// actually have fired for the comparison to mean anything.
func TestRebalancedMatchesStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation")
	}
	const ranks = 4
	const bins = 8
	run := func(cfg Config) (pk *analysis.PowerSpectrum, sorted []uint64, rebalances int64) {
		err := mpi.Run(ranks, func(c *mpi.Comm) {
			s, err := New(c, cfg)
			if err != nil {
				panic(err)
			}
			if err := s.Run(nil); err != nil {
				panic(err)
			}
			ps := s.PowerSpectrum(bins, true)
			g := gatherSorted(c, &s.Dom.Active)
			if c.Rank() == 0 {
				pk = specCopy(ps)
				sorted = g
				rebalances = s.Counters.Rebalances
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return
	}

	staticPk, staticSorted, _ := run(haloCfg())

	reb := haloCfg()
	reb.RebalanceThreshold = 1.05
	reb.RebalanceMinSteps = 1
	rebPk, rebSorted, fired := run(reb)
	if fired == 0 {
		t.Fatal("balancer never fired on the clustered workload; the comparison is vacuous")
	}

	if len(staticSorted) != len(rebSorted) {
		t.Fatalf("particle counts differ: %d vs %d words", len(staticSorted), len(rebSorted))
	}
	// Same universe: identical ID sequence (the sorted records interleave
	// id + 6 state words; compare the ids exactly).
	for i := 0; i < len(staticSorted); i += 7 {
		if staticSorted[i] != rebSorted[i] {
			t.Fatalf("particle ID sets diverge at record %d", i/7)
		}
	}
	// Cross-geometry tolerance: 1e-2 on this workload, looser than the 1e-3
	// of the smooth Zel'dovich restart test because the collapsed halo
	// amplifies float32 summation-order differences chaotically over the
	// post-rebalance steps (documented in DESIGN.md "Load balancing").
	for i := range staticPk.K {
		if staticPk.NModes[i] == 0 {
			continue
		}
		denom := math.Abs(staticPk.P[i])
		if denom == 0 {
			continue
		}
		if rel := math.Abs(rebPk.P[i]-staticPk.P[i]) / denom; rel > 1e-2 {
			t.Errorf("P(k=%g) differs by %.2e (static %g, rebalanced %g)", staticPk.K[i], rel, staticPk.P[i], rebPk.P[i])
		}
	}
}

// TestRebalanceCheckpointCompose is the satellite acceptance: a run that
// rebalances onto a non-uniform decomposition, checkpoints mid-flight, and
// restores must continue bitwise identically to the uninterrupted run — the
// geometry round-trips through the container trailer. The balancer is
// throttled to a single early fire (MinSteps spans the schedule) because a
// restart re-warms the cost model from scratch; with further fires
// suppressed in both runs, the geometry sequences coincide and the
// continuation is exact.
func TestRebalanceCheckpointCompose(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation")
	}
	const ranks = 4
	cfg := haloCfg()
	cfg.RebalanceThreshold = 1.05
	cfg.RebalanceMinSteps = 100

	// Uninterrupted reference.
	finalRef := make([]pcopy, ranks)
	var refFired int64
	err := mpi.Run(ranks, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			panic(err)
		}
		if err := s.Run(nil); err != nil {
			panic(err)
		}
		finalRef[c.Rank()] = capture(&s.Dom.Active)
		if c.Rank() == 0 {
			refFired = s.Counters.Rebalances
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if refFired == 0 {
		t.Fatal("balancer never fired; the compose test is vacuous")
	}

	// Interrupted run: checkpoint at step 2 (after the early rebalance, so
	// the checkpoint holds a non-uniform geometry), then abandon.
	ckroot := t.TempDir()
	ckCfg := cfg
	ckCfg.CheckpointEvery = 2
	ckCfg.CheckpointDir = ckroot
	var ckCuts [3][]int
	var uniform [3][]int
	err = mpi.Run(ranks, func(c *mpi.Comm) {
		s, err := New(c, ckCfg)
		if err != nil {
			panic(err)
		}
		uni := s.Dec.Cuts()
		for i := 0; i < 2; i++ {
			if err := s.Step(); err != nil {
				panic(err)
			}
		}
		if c.Rank() == 0 {
			ckCuts = s.Dec.Cuts()
			uniform = uni
			if s.Counters.Rebalances == 0 {
				t.Error("no rebalance before the checkpoint; lower the threshold")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sameCuts(ckCuts, uniform) {
		t.Fatal("checkpoint was taken under the uniform geometry; the round-trip is untested")
	}
	stepDir := filepath.Join(ckroot, "step000002")

	// The container meta must round-trip the geometry.
	info, err := ReadCheckpointInfo(stepDir)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCuts(info.Cuts, ckCuts) {
		t.Fatalf("container records cuts %v, run had %v", info.Cuts, ckCuts)
	}

	// Restore and finish: bitwise per-rank identical to the reference.
	err = mpi.Run(ranks, func(c *mpi.Comm) {
		s, err := Restore(c, stepDir, func(cfg *Config) {
			cfg.CheckpointEvery = 0
			cfg.CheckpointDir = ""
		})
		if err != nil {
			panic(err)
		}
		if !sameCuts(s.Dec.Cuts(), ckCuts) {
			t.Errorf("restore adopted cuts %v, checkpoint had %v", s.Dec.Cuts(), ckCuts)
		}
		if err := s.Run(nil); err != nil {
			panic(err)
		}
		if !equalBits(capture(&s.Dom.Active), finalRef[c.Rank()]) {
			t.Errorf("rank %d: restored continuation diverged from the uninterrupted rebalanced run", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Restore the same checkpoint at 2 ranks: the recorded cuts belong to
	// the 4-rank process grid, so the restore builds the uniform 2-rank
	// geometry and reassigns every record — losslessly, and keeping the
	// checkpointed drift count (a repartition is not migration).
	gr, err := gio.Open(filepath.Join(stepDir, StateFile))
	if err != nil {
		t.Fatal(err)
	}
	var ckParts domain.Particles
	if err := snapshot.ReadParticleRank(gr, -1, &ckParts); err != nil {
		t.Fatal(err)
	}
	var ckMigrated int64
	for fi := 0; fi < gr.NumRanks(); fi++ {
		words, err := gio.ReadColumn[int64](gr, fi, "counters", nil)
		if err != nil {
			t.Fatal(err)
		}
		ckMigrated += words[machine.CounterWords]
	}
	gr.Close()
	if ckMigrated == 0 {
		t.Fatal("checkpoint records no migration; the drift-count check is vacuous")
	}
	var ckSorted []uint64
	if err := mpi.Run(1, func(c *mpi.Comm) { ckSorted = gatherSorted(c, &ckParts) }); err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(2, func(c *mpi.Comm) {
		s, err := Restore(c, stepDir, func(cfg *Config) {
			cfg.CheckpointEvery = 0
			cfg.CheckpointDir = ""
		})
		if err != nil {
			panic(err)
		}
		if uni := grid.UniformCuts(s.Dec.N, s.Dec.Dims); !sameCuts(s.Dec.Cuts(), uni) {
			t.Errorf("2-rank restore adopted cuts %v, want the uniform %v", s.Dec.Cuts(), uni)
		}
		got := gatherSorted(c, &s.Dom.Active)
		migrated := mpi.AllReduce(c, []int64{s.Dom.Migrated}, mpi.SumI64)[0]
		if c.Rank() != 0 {
			return
		}
		if !equalU64(got, ckSorted) {
			t.Error("2-rank restore changed the checkpoint's ID-sorted particle state")
		}
		if migrated != ckMigrated {
			t.Errorf("2-rank restore sums Dom.Migrated to %d, checkpoint holds %d", migrated, ckMigrated)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceHalvesHaloImbalance is the balancer's end-to-end
// acceptance: on the clustered halo workload over 8 ranks, cost-driven
// rebalancing must cut the final (most clustered) step's max/mean per-rank
// short-range work — kernel interactions plus walk node visits, the
// deterministic stand-in for step time — at least 2× below the static
// uniform decomposition's, and must actually fire.
func TestRebalanceHalvesHaloImbalance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation")
	}
	const ranks = 8
	run := func(rebalance bool) (imb float64, rebalances int64) {
		cfg := haloCfg()
		cfg.Seed = 77
		// Threads is pinned so the walk has several workers; it is
		// bitwise-neutral, so the work counters compare exactly across hosts.
		cfg.Threads = 4
		if rebalance {
			cfg.RebalanceThreshold = 1.1
			cfg.RebalanceMinSteps = 1
		}
		err := mpi.Run(ranks, func(c *mpi.Comm) {
			s, err := New(c, cfg)
			if err != nil {
				panic(err)
			}
			var last float64
			for s.StepIndex < cfg.Steps {
				prev := s.Counters.KernelInteractions + s.Counters.WalkNodes
				if err := s.Step(); err != nil {
					panic(err)
				}
				d := float64(s.Counters.KernelInteractions + s.Counters.WalkNodes - prev)
				var max, sum float64
				for _, w := range mpi.AllGather(c, []float64{d}) {
					max = math.Max(max, w)
					sum += w
				}
				last = max / (sum / ranks)
			}
			if c.Rank() == 0 {
				imb, rebalances = last, s.Counters.Rebalances
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return imb, rebalances
	}
	static, _ := run(false)
	balanced, n := run(true)
	t.Logf("final-step max/mean work: static %.2f, rebalanced %.2f (%d rebalances)", static, balanced, n)
	if n == 0 {
		t.Fatal("balancer never fired on the clustered IC")
	}
	if static < 2*balanced {
		t.Errorf("rebalancing cut the imbalance %.2fx (%.2f -> %.2f), want >= 2x", static/balanced, static, balanced)
	}
}

// TestThreadsBitwiseHalo pins the tree walk's scheduling neutrality end to
// end on the clustered workload, where deep leaves make per-worker loads
// most unequal: the shared-cursor dispatch hands leaves to whichever worker
// is free, yet a full run is bitwise identical at every worker count.
func TestThreadsBitwiseHalo(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation")
	}
	const ranks = 2
	var ref []pcopy
	for _, threads := range []int{1, 2, 4} {
		cfg := haloCfg()
		cfg.Steps = 2
		cfg.Threads = threads
		final := make([]pcopy, ranks)
		err := mpi.Run(ranks, func(c *mpi.Comm) {
			s, err := New(c, cfg)
			if err != nil {
				panic(err)
			}
			if err := s.Run(nil); err != nil {
				panic(err)
			}
			final[c.Rank()] = capture(&s.Dom.Active)
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = final
			continue
		}
		for r := range final {
			if !equalBits(final[r], ref[r]) {
				t.Fatalf("threads=%d: rank %d diverged from the 1-thread run", threads, r)
			}
		}
	}
}

// TestRebalanceConfigValidation covers the new knobs' validation and their
// fingerprint semantics: the trigger knobs and IC kind define the run,
// Threads is bitwise-neutral and restart-compatible.
func TestRebalanceConfigValidation(t *testing.T) {
	ok := haloCfg().WithDefaults()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, mut := range map[string]func(*Config){
		"threshold below 1": func(c *Config) { c.RebalanceThreshold = 0.5 },
		"threshold one":     func(c *Config) { c.RebalanceThreshold = 1 },
		"bad ic kind":       func(c *Config) { c.ICKind = "void" },
	} {
		cfg := ok
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	fp := ok.Fingerprint()
	neutral := ok
	neutral.Threads = 7
	if neutral.Fingerprint() != fp {
		t.Error("Threads must not change the fingerprint (bitwise-neutral knob)")
	}
	for name, mut := range map[string]func(*Config){
		"threshold": func(c *Config) { c.RebalanceThreshold = 1.5 },
		"min steps": func(c *Config) { c.RebalanceMinSteps = 5 },
		"ic kind":   func(c *Config) { c.ICKind = "zeldovich" },
	} {
		cfg := ok
		mut(&cfg)
		if cfg.Fingerprint() == fp {
			t.Errorf("%s must change the fingerprint", name)
		}
	}
}

// TestFingerprintPinned pins the fingerprint of two defaulted configs to
// literal values. A checkpoint stores its config's fingerprint and Restore
// refuses any mismatch, so a change here orphans every checkpoint already
// written; a Config field removal must keep the hashed string intact.
func TestFingerprintPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"baseConfig", baseConfig(), 0xd9df9e6ab7ed2226},
		{"haloCfg", haloCfg(), 0x140557c88f7e75d7},
	} {
		if got := c.cfg.WithDefaults().Fingerprint(); got != c.want {
			t.Errorf("%s: fingerprint %#x, want %#x", c.name, got, c.want)
		}
	}
}
