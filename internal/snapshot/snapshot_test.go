package snapshot

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hacc/internal/domain"
)

func makeParticles(n int, seed int64) *domain.Particles {
	rng := rand.New(rand.NewSource(seed))
	var p domain.Particles
	for i := 0; i < n; i++ {
		p.Append(rng.Float32(), rng.Float32(), rng.Float32(),
			rng.Float32(), rng.Float32(), rng.Float32(), uint64(i*7))
	}
	return &p
}

// writeBytes stores raw bytes as a file under t.TempDir and returns its path.
func writeBytes(t *testing.T, name string, b []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	p := makeParticles(123, 1)
	h := Header{NGrid: 64, BoxMpc: 250, A: 0.5, OmegaM: 0.265, Seed: 42}
	path := filepath.Join(t.TempDir(), "snap.hacc")
	if err := SaveFile(path, h, p); err != nil {
		t.Fatal(err)
	}
	h2, q, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if h2.NGrid != 64 || h2.BoxMpc != 250 || h2.A != 0.5 || h2.NP != 123 {
		t.Errorf("header %+v", h2)
	}
	if q.Len() != p.Len() {
		t.Fatalf("count %d want %d", q.Len(), p.Len())
	}
	for i := 0; i < p.Len(); i++ {
		if q.X[i] != p.X[i] || q.Vz[i] != p.Vz[i] || q.ID[i] != p.ID[i] {
			t.Fatalf("particle %d differs", i)
		}
	}
	// The header-only read agrees with the full load without decoding data.
	hh, err := LoadHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	if hh != h2 {
		t.Errorf("LoadHeader = %+v, LoadFile header = %+v", hh, h2)
	}
}

func TestFileRoundTrip(t *testing.T) {
	p := makeParticles(50, 2)
	path := filepath.Join(t.TempDir(), "snap.bin")
	h := Header{NGrid: 32, BoxMpc: 100, A: 1}
	if err := SaveFile(path, h, p); err != nil {
		t.Fatal(err)
	}
	_, q, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != 50 || q.ID[49] != p.ID[49] {
		t.Error("file round trip broken")
	}
}

func TestBadMagic(t *testing.T) {
	for name, b := range map[string][]byte{
		"garbage": {1, 2, 3, 4, 5, 6, 7, 8},
		"empty":   nil,
	} {
		path := writeBytes(t, name, b)
		if _, _, err := LoadFile(path); err == nil {
			t.Errorf("LoadFile accepted %s input", name)
		}
		if _, err := LoadHeader(path); err == nil {
			t.Errorf("LoadHeader accepted %s input", name)
		}
	}
}

// TestTruncatedSnapshot pins the bounded-read contract: a snapshot cut
// short anywhere — inside the index or inside the particle payload — fails
// with a descriptive error instead of trusting the header's counts.
func TestTruncatedSnapshot(t *testing.T) {
	p := makeParticles(500, 3)
	path := filepath.Join(t.TempDir(), "whole.hacc")
	if err := SaveFile(path, Header{NGrid: 32, BoxMpc: 100, A: 1}, p); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 10, 40, 100, len(whole) / 2, len(whole) - 1} {
		cut := writeBytes(t, "cut.hacc", whole[:n])
		if _, _, err := LoadFile(cut); err == nil {
			t.Errorf("LoadFile accepted snapshot truncated to %d of %d bytes", n, len(whole))
		}
		if _, err := LoadHeader(cut); err == nil {
			t.Errorf("LoadHeader accepted snapshot truncated to %d of %d bytes", n, len(whole))
		}
	}
	// Flipped payload byte: the column CRC catches it.
	bad := append([]byte(nil), whole...)
	bad[len(bad)-20] ^= 0x01
	if _, _, err := LoadFile(writeBytes(t, "bad.hacc", bad)); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("corrupt payload error = %v, want a CRC mismatch", err)
	}
}

// TestLegacyFormatRejected pins that a pre-container (version 1) snapshot,
// which started with the raw "HACC" magic, is refused by every reader as
// not a container.
func TestLegacyFormatRejected(t *testing.T) {
	legacy := make([]byte, 64)
	copy(legacy, []byte{0x43, 0x43, 0x41, 0x48, 1, 0, 0, 0, 9, 9, 9, 9})
	path := writeBytes(t, "old.hacc", legacy)
	if _, _, err := LoadFile(path); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("legacy load error = %v, want bad magic", err)
	}
	if _, err := LoadHeader(path); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("legacy header error = %v, want bad magic", err)
	}
}

// TestProductKindConfusion pins that the three product readers refuse each
// other's containers by meta kind.
func TestProductKindConfusion(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "snap.hacc")
	if err := SaveFile(snap, Header{NGrid: 16, BoxMpc: 50, A: 1}, makeParticles(10, 4)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadHalos(snap); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("halo read of a particle snapshot: %v", err)
	}
	if _, _, err := LoadSpectrum(snap); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("spectrum read of a particle snapshot: %v", err)
	}
	cat := filepath.Join(dir, "halos.hacc")
	if err := SaveHalos(cat, Header{NGrid: 16}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFile(cat); err == nil {
		t.Error("particle read of a halo catalog accepted")
	}
	if _, err := LoadHeader(cat); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("header read of a halo catalog: %v", err)
	}
}
