package core

import (
	"math"
	"testing"

	"hacc/internal/cosmology"
	"hacc/internal/mpi"
)

// TestDarkEnergyModelSpace runs the same realization under ΛCDM, a
// quintessence model, and a CPL model — the paper's §V science program —
// and checks the measured growth ordering matches linear theory.
func TestDarkEnergyModelSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation; skipped under -short (race CI)")
	}
	growthOf := func(w, wa float64) (measured, linear float64) {
		cfg := baseConfig()
		cfg.Solver = PPTreePM
		cfg.ZInit = 24
		cfg.ZFinal = 4
		cfg.Steps = 5
		cfg.Cosmo = cosmology.Default()
		cfg.Cosmo.W = w
		cfg.Cosmo.WA = wa
		err := mpi.Run(2, func(c *mpi.Comm) {
			s, err := New(c, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			p0 := s.PowerSpectrum(8, false)
			a0 := s.A
			if err := s.Run(nil); err != nil {
				t.Error(err)
				return
			}
			p1 := s.PowerSpectrum(8, false)
			if c.Rank() != 0 {
				return
			}
			// Growth from the lowest well-sampled bin.
			for i := range p0.K {
				if p0.NModes[i] >= 20 && p0.K[i] < 0.1 {
					measured = math.Sqrt(p1.P[i] / p0.P[i])
					break
				}
			}
			linear = s.LP.Gfac.D(s.A) / s.LP.Gfac.D(a0)
		})
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	mL, lL := growthOf(-1, 0)
	mQ, lQ := growthOf(-0.5, 0)
	mC, lC := growthOf(-0.9, 0.4)
	for _, pair := range [][2]float64{{mL, lL}, {mQ, lQ}, {mC, lC}} {
		if math.Abs(pair[0]-pair[1]) > 0.06*pair[1] {
			t.Errorf("measured growth %g vs linear %g", pair[0], pair[1])
		}
	}
	// At z=4 all these models are matter dominated, so growth differences
	// are small — but the linear ordering must be preserved by the sim
	// within measurement error.
	t.Logf("growth z=24→4: ΛCDM %.4f (lin %.4f), w=-0.5 %.4f (lin %.4f), CPL %.4f (lin %.4f)",
		mL, lL, mQ, lQ, mC, lC)
}
