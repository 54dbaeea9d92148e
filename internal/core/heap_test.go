package core

import (
	"runtime"
	"testing"

	"hacc/internal/mpi"
)

// pmWireConfig is the pm-wire benchmark workload's shape: 32³ particles on
// a 64³ PM grid, PMOnly.
func pmWireConfig() Config {
	return Config{
		Solver: PMOnly, NParticles: 32, NGrid: 64, BoxMpc: 128,
		ZInit: 24, ZFinal: 0, Steps: 4, Seed: 42, FixedAmp: true,
	}
}

// TestPMWireLiveHeap pins the live heap of a running simulation at
// pm-wire's shape over 2 in-process ranks (which share one heap): after New
// and two Steps the collected heap is at most 42 MiB. It measured 36.8 MiB:
// the four ghost-6 fields (15.5 MiB), the long-range plans (the r2c
// transposes' buffers, real and gradient scratch, kernel table, run lists
// and pack buffers), the particles and the domain and ghost exchange plans.
// The bound leaves 5 MiB (≈ 14 %) for allocator and collector variance;
// with per-cell ghost lists, receive frames pinned by plan-owned requests
// and by the mailbox, and the solve's owned-region copies it measured
// 52.5 MiB. The exchange plans keep only a tag between Begin and End and
// take each frame with mpi.Recv as they unpack it, so no plan can pin a
// received payload.
func TestPMWireLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("64³ simulation")
	}
	const boundMiB = 42
	var m runtime.MemStats
	err := mpi.Run(2, func(c *mpi.Comm) {
		s, err := New(c, pmWireConfig())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 2; i++ {
			if err := s.Step(); err != nil {
				t.Error(err)
				return
			}
		}
		mpi.Barrier(c)
		if c.Rank() == 0 {
			runtime.GC()
			runtime.ReadMemStats(&m)
		}
		mpi.Barrier(c)
		runtime.KeepAlive(s) // the simulation must be live when rank 0 measures
	})
	if err != nil {
		t.Fatal(err)
	}
	live := float64(m.HeapAlloc) / (1 << 20)
	t.Logf("live heap after New and two Steps: %.1f MiB over 2 ranks", live)
	if live > boundMiB {
		t.Errorf("live heap %.1f MiB, want ≤ %d MiB", live, boundMiB)
	}
}
