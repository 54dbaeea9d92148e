package core

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"hacc/internal/mpi"
	"hacc/internal/snapshot"
)

// TestInSituAnalysisHook runs a short simulation with the in-situ pipeline
// enabled and checks the cadence, the in-memory product, and the emitted
// halo catalogs and spectra.
func TestInSituAnalysisHook(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation")
	}
	// A not-yet-existing nested directory: Analyze must create it rather
	// than abort the run at the first emission.
	dir := t.TempDir() + "/products/run1"
	const ranks = 4
	// PM-only force resolution is the grid scale, so the linking length is
	// set to half a cell (the test exercises the pipeline, not sub-grid
	// halo physics — the tree solver examples use the standard b=0.2).
	cfg := Config{
		NGrid: 24, NParticles: 24, BoxMpc: 150,
		ZInit: 20, ZFinal: 0, Steps: 6, SubCycles: 2,
		Seed: 9, Solver: PMOnly,
		AnalysisEvery: 2, AnalysisBins: 10, MinHaloSize: 5, FOFLinking: 0.5,
		AnalysisDir: dir,
	}
	err := mpi.Run(ranks, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Run(nil); err != nil {
			t.Error(err)
			return
		}
		if s.LastAnalysis == nil {
			t.Error("no in-situ analysis ran")
			return
		}
		if s.LastAnalysis.Step != 6 {
			t.Errorf("last analysis at step %d want 6", s.LastAnalysis.Step)
		}
		if s.LastAnalysis.Spectrum == nil || len(s.LastAnalysis.Spectrum.K) == 0 {
			t.Error("in-situ spectrum empty")
		}
		nh := mpi.AllReduce(c, []int{len(s.LastAnalysis.Halos)}, mpi.SumInt)[0]
		if c.Rank() != 0 {
			return
		}
		if nh == 0 {
			t.Error("no halos found at z=0 (expected at least a few)")
		}
		// Emission: per-rank catalogs and a rank-0 spectrum at steps 2, 4, 6.
		for _, step := range []int{2, 4, 6} {
			var total int
			for r := 0; r < ranks; r++ {
				h, halos, err := snapshot.LoadHalos(fmt.Sprintf("%s/halos_step%04d.r%d.bin", dir, step, r))
				if err != nil {
					t.Errorf("catalog step %d rank %d: %v", step, r, err)
					continue
				}
				if h.NGrid != 24 {
					t.Errorf("catalog header grid %d", h.NGrid)
				}
				total += len(halos)
			}
			if step == 6 && total != nh {
				t.Errorf("emitted catalogs hold %d halos, in-memory %d", total, nh)
			}
			if _, ps, err := snapshot.LoadSpectrum(fmt.Sprintf("%s/spectrum_step%04d.bin", dir, step)); err != nil {
				t.Errorf("spectrum step %d: %v", step, err)
			} else if len(ps.K) == 0 {
				t.Errorf("spectrum step %d empty", step)
			}
		}
		// No analysis at odd steps.
		if _, err := os.Stat(fmt.Sprintf("%s/spectrum_step%04d.bin", dir, 3)); err == nil {
			t.Error("analysis ran at step 3 with AnalysisEvery=2")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAnalysisConfigValidation pins the centralized validation of the
// in-situ knobs: zero takes the documented default, negative (or otherwise
// senseless) values fail loudly at New.
func TestAnalysisConfigValidation(t *testing.T) {
	base := Config{
		NGrid: 16, NParticles: 16, BoxMpc: 100,
		ZInit: 20, ZFinal: 5, Steps: 2,
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"negative AnalysisEvery", func(c *Config) { c.AnalysisEvery = -1 }, "AnalysisEvery"},
		{"negative AnalysisBins", func(c *Config) { c.AnalysisBins = -2 }, "AnalysisBins"},
		{"negative FOFLinking", func(c *Config) { c.FOFLinking = -0.2 }, "FOFLinking"},
		{"negative MinHaloSize", func(c *Config) { c.MinHaloSize = -5 }, "MinHaloSize"},
		{"linking beyond overload", func(c *Config) { c.AnalysisEvery = 1; c.FOFLinking = 9; c.Overload = 2 }, "overload"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		err := cfg.WithDefaults().Validate()
		if err == nil {
			t.Errorf("%s: validation passed", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Zero values are defaults, not errors.
	if err := base.WithDefaults().Validate(); err != nil {
		t.Errorf("zero analysis config rejected: %v", err)
	}
	// With the pipeline disabled, the defaulted linking length must not
	// reject an explicitly narrow overload shell (ad-hoc FindHalos calls
	// validate their own linking length at call time).
	narrow := base
	narrow.Overload = 0.15
	if err := narrow.WithDefaults().Validate(); err != nil {
		t.Errorf("disabled pipeline rejected narrow overload: %v", err)
	}
	got := base.WithDefaults()
	if got.AnalysisBins != 16 || got.FOFLinking != 0.2 || got.MinHaloSize != 10 {
		t.Errorf("defaults = bins %d, linking %g, min size %d", got.AnalysisBins, got.FOFLinking, got.MinHaloSize)
	}
}

// TestPowerPlanHeap pins that the in-situ P(k) estimator shares the Poisson
// solver's transform: building and running it on a warm 64³ 2-rank
// simulation adds only its binning tables and 1-cell deposit field
// (≈ 7 MB), not a second pencil plan, redistributor and transform buffers
// (≈ 38 MB).
func TestPowerPlanHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("64³ simulation")
	}
	cfg := baseConfig()
	cfg.NGrid, cfg.NParticles, cfg.Steps = 64, 64, 1
	const bins = 16
	var before, after runtime.MemStats
	err := mpi.Run(2, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		// One step warms the solver, including its lazily built r2c plan.
		if err := s.Step(); err != nil {
			t.Error(err)
			return
		}
		heap := func(m *runtime.MemStats) {
			mpi.Barrier(c)
			if c.Rank() == 0 {
				runtime.GC()
				runtime.ReadMemStats(m)
			}
			mpi.Barrier(c)
		}
		heap(&before)
		s.ensurePower(bins)
		s.PowerSpectrum(bins, true)
		heap(&after)
		runtime.KeepAlive(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	grown := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	t.Logf("P(k) plan: %.1f MB live heap over 2 ranks", grown)
	if grown > 12 {
		t.Errorf("P(k) plan adds %.1f MB of live heap, want ≤ 12 MB", grown)
	}
}

// TestCommsCollectedAfterRun pins that nothing package-global keeps a
// communicator reachable once its run is over: plan numbering lives on the
// Comm itself, so a finished world is garbage like any other.
func TestCommsCollectedAfterRun(t *testing.T) {
	cfg := baseConfig()
	cfg.Steps, cfg.AnalysisEvery = 1, 1
	var comms [2]weak.Pointer[mpi.Comm]
	err := mpi.Run(2, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Run(nil); err != nil {
			t.Error(err)
			return
		}
		comms[c.Rank()] = weak.Make(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Parked pool workers keep their last loop body until the pool's
	// finalizer closes them, so collection can take a few GC cycles.
	for range 20 {
		runtime.GC()
		if comms[0].Value() == nil && comms[1].Value() == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	for r, w := range comms {
		if w.Value() != nil {
			t.Errorf("rank %d's Comm is still reachable after its run", r)
		}
	}
}
