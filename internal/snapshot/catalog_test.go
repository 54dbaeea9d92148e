package snapshot

import (
	"path/filepath"
	"testing"

	"hacc/internal/analysis"
)

func TestHaloCatalogRoundTrip(t *testing.T) {
	h := Header{NGrid: 64, BoxMpc: 250, A: 0.5, OmegaM: 0.27, Seed: 42}
	halos := []analysis.Halo{
		{GID: 13, N: 120, Mass: 3.2e14, X: 1.5, Y: 63.9, Z: 0.01, VX: -0.2, VY: 0.4, VZ: 0, RMax: 2.5,
			Members: []int32{1, 2, 3}}, // Members intentionally not persisted
		{GID: 9000000007, N: 10, Mass: 2.5e13, X: 32, Y: 32, Z: 32, RMax: 0.8},
	}
	path := filepath.Join(t.TempDir(), "halos.hacc")
	if err := SaveHalos(path, h, halos); err != nil {
		t.Fatal(err)
	}
	h2, got, err := LoadHalos(path)
	if err != nil {
		t.Fatal(err)
	}
	if h2.NGrid != h.NGrid || h2.BoxMpc != h.BoxMpc || h2.A != h.A || h2.NP != 2 {
		t.Errorf("header %+v", h2)
	}
	if len(got) != len(halos) {
		t.Fatalf("%d halos want %d", len(got), len(halos))
	}
	for i := range got {
		w := halos[i]
		g := got[i]
		if g.Members != nil {
			t.Errorf("halo %d: members persisted unexpectedly", i)
		}
		if g.GID != w.GID || g.N != w.N || g.Mass != w.Mass ||
			g.X != w.X || g.Y != w.Y || g.Z != w.Z ||
			g.VX != w.VX || g.VY != w.VY || g.VZ != w.VZ || g.RMax != w.RMax {
			t.Errorf("halo %d: %+v want %+v", i, g, w)
		}
	}
}

func TestSpectrumRoundTrip(t *testing.T) {
	h := Header{NGrid: 32, BoxMpc: 500, A: 1}
	ps := &analysis.PowerSpectrum{
		K:         []float64{0.05, 0.1, 0.2},
		P:         []float64{1200, 800, 300},
		NModes:    []int64{12, 88, 420},
		ShotNoise: 3.7,
	}
	path := filepath.Join(t.TempDir(), "pk.hacc")
	if err := SaveSpectrum(path, h, ps); err != nil {
		t.Fatal(err)
	}
	h2, got, err := LoadSpectrum(path)
	if err != nil {
		t.Fatal(err)
	}
	if h2.NP != 3 {
		t.Errorf("header NP %d", h2.NP)
	}
	if got.ShotNoise != ps.ShotNoise {
		t.Errorf("shot %g", got.ShotNoise)
	}
	for i := range ps.K {
		if got.K[i] != ps.K[i] || got.P[i] != ps.P[i] || got.NModes[i] != ps.NModes[i] {
			t.Errorf("bin %d mismatch", i)
		}
	}
}

func TestCatalogBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pk.hacc")
	if err := SaveSpectrum(path, Header{}, &analysis.PowerSpectrum{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadHalos(path); err == nil {
		t.Error("spectrum file accepted as a halo catalog")
	}
}
