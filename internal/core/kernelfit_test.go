package core

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hacc/internal/mpi"
	"hacc/internal/shortrange"
)

// fitConfig is a small PPTreePM run that decomposes over 1, 2, 3 and 8
// ranks.
func fitConfig() Config {
	return Config{
		Solver: PPTreePM, NParticles: 12, NGrid: 24, BoxMpc: 96,
		ZInit: 24, ZFinal: 20, Steps: 1, FixedAmp: true, Seed: 7,
	}
}

// TestKernelPolyRankInvariant pins the split kernel fit: s.Kernel's
// polynomial is bitwise FitGridForce's at 1, 2, 3 and 8 ranks (8 > the
// fit's 6 offsets, so two ranks measure nothing), and Restore rebuilds the
// same polynomial as New.
func TestKernelPolyRankInvariant(t *testing.T) {
	cfg := fitConfig()
	d := cfg.WithDefaults()
	want, err := shortrange.FitGridForce(shortrange.FitOptions{
		GridN: d.FitGridN, RCut: d.RCut, Sigma: d.Sigma, Ns: d.NsFilter, Seed: int64(d.Seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got [6]float64) {
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want.Poly[i]) {
				t.Errorf("%s: coefficient %d is %v, want %v", what, i, got[i], want.Poly[i])
			}
		}
	}
	dir := filepath.Join(t.TempDir(), "ck")
	for _, ranks := range []int{1, 2, 3, 8} {
		var mu sync.Mutex
		err := mpi.Run(ranks, func(c *mpi.Comm) {
			s, err := New(c, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			same(fmt.Sprintf("New, %d ranks, rank %d", ranks, c.Rank()), s.Kernel.Poly)
			mu.Unlock()
			if ranks == 2 {
				if err := s.Checkpoint(dir); err != nil {
					t.Error(err)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	err = mpi.Run(2, func(c *mpi.Comm) {
		s, err := Restore(c, dir, nil)
		if err != nil {
			t.Error(err)
			return
		}
		same(fmt.Sprintf("Restore, rank %d", c.Rank()), s.Kernel.Poly)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFitGridTooSmallRejected checks that a fit grid too small for the cut
// fails in Validate for both short-range solvers (PMOnly fits nothing, so
// it accepts it), and that New returns the error on every rank instead of
// panicking mid-set-up.
func TestFitGridTooSmallRejected(t *testing.T) {
	for _, solver := range []SolverKind{PPTreePM, P3M, PMOnly} {
		cfg := fitConfig()
		cfg.Solver, cfg.FitGridN, cfg.RCut = solver, 12, 3
		err := cfg.WithDefaults().Validate()
		if (err == nil) != (solver == PMOnly) {
			t.Errorf("%v: FitGridN 12 with RCut 3: Validate returned %v", solver, err)
		}
		if solver == PMOnly {
			continue
		}
		if err := mpi.Run(2, func(c *mpi.Comm) {
			if _, err := New(c, cfg); err == nil || !strings.Contains(err.Error(), "FitGridN") {
				t.Errorf("%v rank %d: New returned %v", solver, c.Rank(), err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFitKernelFailsOnEveryRank checks that a kernel fit error is a
// returned error on every rank, also when only rank 0 sees it: one offset
// of one sample leaves the degree-5 fit short of samples on rank 0, while
// the other ranks own no offset and measure nothing.
func TestFitKernelFailsOnEveryRank(t *testing.T) {
	for _, o := range []shortrange.FitOptions{
		{Seed: 1, Offsets: 1, Radii: 1, Dirs: 1},
		{Seed: 1, GridN: 12, RCut: 3},
	} {
		for _, ranks := range []int{1, 2, 3} {
			if err := mpi.Run(ranks, func(c *mpi.Comm) {
				if _, err := fitKernel(c, o); err == nil {
					t.Errorf("%+v, %d ranks: rank %d fitted", o, ranks, c.Rank())
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}
