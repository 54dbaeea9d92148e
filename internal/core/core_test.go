package core

import (
	"math"
	"testing"

	"hacc/internal/analysis"
	"hacc/internal/cosmology"
	"hacc/internal/mpi"
)

func baseConfig() Config {
	return Config{
		NGrid:      32,
		NParticles: 32,
		BoxMpc:     500,
		ZInit:      24,
		ZFinal:     9,
		Steps:      4,
		SubCycles:  2,
		Seed:       12345,
		FixedAmp:   true,
		Solver:     PMOnly,
	}
}

func TestConfigDefaultsAndValidate(t *testing.T) {
	c := baseConfig().WithDefaults()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.RCut != 3.0 || c.Overload != 4.0 || c.SubCycles != 2 {
		t.Errorf("defaults wrong: %+v", c)
	}
	bad := baseConfig()
	bad.ZInit, bad.ZFinal = 1, 5
	if bad.WithDefaults().Validate() == nil {
		t.Error("accepted ZInit < ZFinal")
	}
	bad = baseConfig()
	bad.Transfer = "nonsense"
	if bad.WithDefaults().Validate() == nil {
		t.Error("accepted unknown transfer")
	}
}

func TestZeldovichGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation; skipped under -short (race CI)")
	}
	// End-to-end validation of the force normalization and the SKS
	// integrator: in the linear regime the measured P(k) must grow by
	// D²(a₂)/D²(a₁) between the initial and final redshift. This requires
	// the FULL solver: the filtered PM force alone under-pulls at k within
	// a decade of the Nyquist frequency by design, and the fitted
	// short-range kernel restores it (paper §II force matching).
	cfg := baseConfig()
	cfg.Solver = PPTreePM
	err := mpi.Run(4, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		p0 := s.PowerSpectrum(10, false)
		a0 := s.A
		if err := s.Run(nil); err != nil {
			t.Error(err)
			return
		}
		p1 := s.PowerSpectrum(10, false)
		if c.Rank() != 0 {
			return
		}
		g := s.LP.Gfac
		want := math.Pow(g.D(s.A)/g.D(a0), 2)
		checked := 0
		for i, k := range p0.K {
			if k > 0.1 || p0.NModes[i] < 20 {
				continue // stay well inside the linear, well-sampled regime
			}
			got := p1.P[i] / p0.P[i]
			if math.Abs(got-want) > 0.08*want {
				t.Errorf("k=%.3f: growth %g want %g (%.1f%% off)",
					k, got, want, 100*(got-want)/want)
			}
			checked++
		}
		if checked < 3 {
			t.Errorf("only %d bins checked", checked)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMomentumConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation; skipped under -short (race CI)")
	}
	cfg := baseConfig()
	cfg.Solver = PPTreePM
	cfg.Steps = 2
	err := mpi.Run(2, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		mom := func() [3]float64 {
			var p [3]float64
			for i := 0; i < s.Dom.Active.Len(); i++ {
				p[0] += float64(s.Dom.Active.Vx[i])
				p[1] += float64(s.Dom.Active.Vy[i])
				p[2] += float64(s.Dom.Active.Vz[i])
			}
			tot := mpi.AllReduce(c, p[:], mpi.SumF64)
			return [3]float64{tot[0], tot[1], tot[2]}
		}
		before := mom()
		if err := s.Run(nil); err != nil {
			t.Error(err)
			return
		}
		after := mom()
		// Scale: typical |p| per particle times particle count.
		var scale float64
		for i := 0; i < s.Dom.Active.Len(); i++ {
			scale += math.Abs(float64(s.Dom.Active.Vx[i]))
		}
		tot := mpi.AllReduce(c, []float64{scale}, mpi.SumF64)
		if c.Rank() != 0 {
			return
		}
		for d := 0; d < 3; d++ {
			drift := math.Abs(after[d] - before[d])
			if drift > 1e-3*tot[0] {
				t.Errorf("momentum drift in component %d: %g (scale %g)", d, drift, tot[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParticleConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation; skipped under -short (race CI)")
	}
	cfg := baseConfig()
	cfg.Solver = PPTreePM
	cfg.Steps = 3
	cfg.ZFinal = 5
	err := mpi.Run(4, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		want := int64(32 * 32 * 32)
		if got := s.Dom.NGlobal(); got != want {
			t.Errorf("initial particles %d want %d", got, want)
		}
		if err := s.Run(nil); err != nil {
			t.Error(err)
			return
		}
		if got := s.Dom.NGlobal(); got != want {
			t.Errorf("final particles %d want %d", got, want)
		}
		if s.SubstepsDone != int64(cfg.Steps*cfg.SubCycles) {
			t.Errorf("substeps %d want %d", s.SubstepsDone, cfg.Steps*cfg.SubCycles)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSolverAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation; skipped under -short (race CI)")
	}
	// Paper §II: the P3M and PPTreePM configurations agree to ~0.1% on the
	// nonlinear power spectrum. Our two backends share the force kernel, so
	// their spectra should agree even more tightly.
	run := func(kind SolverKind) *analysis.PowerSpectrum {
		cfg := baseConfig()
		cfg.Solver = kind
		cfg.ZInit = 24
		cfg.ZFinal = 4
		cfg.Steps = 4
		var ps *analysis.PowerSpectrum
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
			out := s.PowerSpectrum(12, false)
			if c.Rank() == 0 {
				ps = out
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	pt := run(PPTreePM)
	pp := run(P3M)
	for i := range pt.K {
		rel := math.Abs(pt.P[i]-pp.P[i]) / pt.P[i]
		if rel > 0.002 {
			t.Errorf("k=%.3f: tree %g vs p3m %g (%.3f%%)", pt.K[i], pt.P[i], pp.P[i], 100*rel)
		}
	}
}

func TestRankCountIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation; skipped under -short (race CI)")
	}
	// Two steps on 1 vs 8 ranks must give closely matching spectra. Not
	// exactly: the tree's pair order and the P(k) reduction order follow
	// the layout (PMOnly's particles are exact, see
	// TestPMOnlyParticlesRankCountExact).
	run := func(procs int) *analysis.PowerSpectrum {
		cfg := baseConfig()
		cfg.Solver = PPTreePM
		cfg.Steps = 2
		var ps *analysis.PowerSpectrum
		err := mpi.Run(procs, func(c *mpi.Comm) {
			s, err := New(c, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if err := s.Run(nil); err != nil {
				t.Error(err)
				return
			}
			out := s.PowerSpectrum(10, false)
			if c.Rank() == 0 {
				ps = out
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	p1 := run(1)
	p8 := run(8)
	for i := range p1.K {
		rel := math.Abs(p1.P[i]-p8.P[i]) / p1.P[i]
		if rel > 0.01 {
			t.Errorf("k=%.3f: 1-rank %g vs 8-rank %g (%.2f%%)", p1.K[i], p1.P[i], p8.P[i], 100*rel)
		}
	}
}

// TestPMOnlyParticlesRankCountExact pins PMOnly's final particle state bit
// for bit across 1, 2, 4 and 8 ranks: the CIC deposit, the spectral solve
// and the interpolation give every particle the same long-range kick at
// any layout, so the ID-sorted records must be ==. The power spectrum is
// not pinned: each rank sums its bins over its own slab and AllReduce
// combines them by recursive doubling, so the summation order follows the
// rank count and P(k)'s last bits still differ across layouts.
func TestPMOnlyParticlesRankCountExact(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation; skipped under -short (race CI)")
	}
	run := func(procs int) []uint64 {
		var sorted []uint64
		err := mpi.Run(procs, func(c *mpi.Comm) {
			s, err := New(c, baseConfig())
			if err != nil {
				panic(err)
			}
			if err := s.Run(nil); err != nil {
				panic(err)
			}
			if out := gatherSorted(c, &s.Dom.Active); c.Rank() == 0 {
				sorted = out
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return sorted
	}
	want := run(1)
	if np := baseConfig().NParticles; len(want) != 7*np*np*np {
		t.Fatalf("1 rank gathered %d words, want 7 per particle", len(want))
	}
	for _, procs := range []int{2, 4, 8} {
		if got := run(procs); !equalU64(got, want) {
			t.Errorf("%d ranks: ID-sorted particle bits differ from 1 rank", procs)
		}
	}
}

// TestDensityStatsRankIndependent checks every DensityStats field is a
// global reduction: the same initial state measured on 1 and 4 ranks gives
// the same negative-cell fraction and extrema exactly (cell counts and
// max/min are order-free) and the same variance up to summation order.
func TestDensityStatsRankIndependent(t *testing.T) {
	measure := func(procs int) analysis.DensityStats {
		var st analysis.DensityStats
		err := mpi.Run(procs, func(c *mpi.Comm) {
			s, err := New(c, baseConfig())
			if err != nil {
				t.Error(err)
				return
			}
			out := s.DensityStats()
			if c.Rank() == 0 {
				st = out
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	one, four := measure(1), measure(4)
	if one.NegFrac != four.NegFrac || one.Max != four.Max || one.Min != four.Min {
		t.Errorf("1 rank %+v vs 4 ranks %+v: NegFrac, Max and Min must match exactly", one, four)
	}
	if rel := math.Abs(one.Variance-four.Variance) / one.Variance; rel > 1e-12 {
		t.Errorf("variance 1 rank %g vs 4 ranks %g (rel %.2g)", one.Variance, four.Variance, rel)
	}
}

func TestNonlinearGrowthExceedsLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation; skipped under -short (race CI)")
	}
	// Fig. 10's qualitative content: at high k the measured spectrum grows
	// beyond the linear prediction once clustering develops.
	cfg := baseConfig()
	cfg.Solver = PPTreePM
	cfg.BoxMpc = 120 // smaller box → nonlinear scales resolved
	cfg.ZInit = 24
	cfg.ZFinal = 0.5
	cfg.Steps = 12
	cfg.SubCycles = 3
	err := mpi.Run(4, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Run(nil); err != nil {
			t.Error(err)
			return
		}
		ps := s.PowerSpectrum(12, true)
		stats := s.DensityStats()
		if c.Rank() != 0 {
			return
		}
		if stats.Max < 10 {
			t.Errorf("density contrast max %g: clustering did not develop", stats.Max)
		}
		d := s.LP.Gfac.D(s.A)
		// Highest usable bins: nonlinear boost.
		var boosted bool
		for i, k := range ps.K {
			if k < 0.4 || k > 0.7*math.Pi*float64(cfg.NGrid)/cfg.BoxMpc {
				continue
			}
			lin := d * d * s.LP.P(k)
			if ps.P[i] > 1.3*lin {
				boosted = true
			}
		}
		if !boosted {
			t.Error("no nonlinear enhancement at high k")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTimersAndCounters(t *testing.T) {
	cfg := baseConfig()
	cfg.Solver = PPTreePM
	cfg.Steps = 1
	err := mpi.Run(1, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Step(); err != nil {
			t.Error(err)
			return
		}
		if s.Counters.KernelInteractions == 0 {
			t.Error("no interactions counted")
		}
		// 2 long-range kicks × (1 r2c forward + 3 c2r inverses) at half the
		// complex-transform cost each: 4 complex-transform equivalents.
		if s.Counters.FFT3D != 4 {
			t.Errorf("FFT3D=%d want 4", s.Counters.FFT3D)
		}
		if s.Timers.Get("kernel") == 0 || s.Timers.Get("fft") == 0 {
			t.Error("phase timers empty")
		}
		if s.MemoryMB() <= 0 {
			t.Error("memory estimate non-positive")
		}
		gc := s.GlobalCounters()
		if gc.Flops() <= 0 {
			t.Error("no flops counted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHaloFindingInSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation; skipped under -short (race CI)")
	}
	// By z≈1 in a small box, FOF should find halos and the mass function
	// should decline with mass.
	cfg := baseConfig()
	cfg.Solver = PPTreePM
	cfg.BoxMpc = 100
	cfg.ZInit = 24
	cfg.ZFinal = 0.5
	cfg.Steps = 12
	cfg.SubCycles = 3
	cfg.Cosmo = cosmology.Default()
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
		halos := s.FindHalos(0.2, 10)
		counts := mpi.AllReduce(c, []int{len(halos)}, mpi.SumInt)
		if c.Rank() == 0 && counts[0] < 3 {
			t.Errorf("only %d halos found at z=0.5 in a 100 Mpc box", counts[0])
		}
		// Sanity on the mass scale: ≥10 particles × mp.
		for _, h := range halos {
			if h.Mass < 9*s.ParticleMassMsun {
				t.Errorf("halo mass %g below 10 particles", h.Mass)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
