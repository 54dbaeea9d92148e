package core

import (
	"math"
	"testing"
	_ "unsafe" // go:linkname

	"hacc/internal/mpi"
)

// forceKernelISA is shortrange's unexported body-selection test hook: there
// is deliberately no user-facing way to pick the kernel body.
//
//go:linkname forceKernelISA hacc/internal/shortrange.forceKernelISA
func forceKernelISA(isa string) (restore func(), ok bool)

// rankState is everything a kernel body could change on one rank.
type rankState struct {
	pos, vel           [3][]float32
	interactions, walk int64
}

// runUnderISA evolves cfg on 2 ranks with ApplyRanges forced onto one body
// and returns each rank's final particles and kernel counters; ok is false
// when this host has no such body.
func runUnderISA(t *testing.T, isa string, cfg Config) (out [2]rankState, ok bool) {
	t.Helper()
	restore, ok := forceKernelISA(isa)
	if !ok {
		return out, false
	}
	defer restore()
	err := mpi.Run(2, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			found := false
			for _, m := range c.World().Metrics().Snapshot() {
				found = found || m.Name == "shortrange.kernel_isa."+isa && m.Value == 1
			}
			if !found {
				t.Errorf("metrics registry does not name kernel body %q", isa)
			}
		}
		if err := s.Run(nil); err != nil {
			panic(err)
		}
		a := &s.Dom.Active
		clone := func(v []float32) []float32 { return append([]float32(nil), v...) }
		out[c.Rank()] = rankState{
			pos:          [3][]float32{clone(a.X), clone(a.Y), clone(a.Z)},
			vel:          [3][]float32{clone(a.Vx), clone(a.Vy), clone(a.Vz)},
			interactions: s.Counters.KernelInteractions,
			walk:         s.Counters.WalkNodes,
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, true
}

// TestKernelBodiesBitwiseEndToEnd: a short 2-rank run of each short-range
// backend under every kernel body the host runs (the portable Go body, and
// on amd64 SSE2 and, where the CPU has it, AVX2) ends in bitwise-identical
// particles with identical KernelInteractions and WalkNodes — the bodies
// are one numerics at different widths, and the assembly early-out still
// counts every pair it tests.
func TestKernelBodiesBitwiseEndToEnd(t *testing.T) {
	for _, solver := range []SolverKind{PPTreePM, P3M} {
		cfg := baseConfig()
		cfg.NGrid, cfg.NParticles, cfg.BoxMpc = 16, 16, 250
		cfg.Solver = solver
		cfg.Steps = 2
		cfg.SubCycles = 2
		ref, ok := runUnderISA(t, "portable", cfg)
		if !ok {
			t.Fatal("cannot force the portable kernel body")
		}
		for _, isa := range []string{"sse2", "avx2"} {
			got, ok := runUnderISA(t, isa, cfg)
			if !ok {
				continue // not a body of this host
			}
			for r := range ref {
				a, b := ref[r], got[r]
				if a.interactions != b.interactions || a.walk != b.walk {
					t.Errorf("%v rank %d: counters differ: portable %d/%d, %s %d/%d",
						solver, r, a.interactions, a.walk, isa, b.interactions, b.walk)
				}
				if a.interactions == 0 {
					t.Errorf("%v rank %d: the kernel never ran", solver, r)
				}
				for c := 0; c < 3; c++ {
					if !sameBits(a.pos[c], b.pos[c]) || !sameBits(a.vel[c], b.vel[c]) {
						t.Errorf("%v rank %d: particles differ between portable and %s (component %d)", solver, r, isa, c)
					}
				}
			}
		}
	}
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
