package core

import (
	"reflect"
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
// with per-cell ghost lists, receive frames pinned by requests and by the
// mailbox, and the solve's owned-region copies it measured 52.5 MiB. After
// a halo-finding pass too, no mpi.Request reachable from the simulation —
// the pooled ghost ops, the domain exchange legs, the FOF plan's legs — may
// still reference a received payload.
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
		s.FindHalos(0.168, 10)
		mpi.Barrier(c)
		if held, recvs := pinnedPayloads(s); held > 0 || recvs == 0 {
			t.Errorf("rank %d: %d of %d receive requests reachable from the simulation still reference a payload",
				c.Rank(), held, recvs)
		}
		mpi.Barrier(c)
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

// pinnedPayloads walks everything reachable from s and counts the receive
// requests it meets and those of them that still hold a payload.
func pinnedPayloads(s *Simulation) (held, recvs int) {
	reqType := reflect.TypeFor[mpi.Request]()
	type key struct {
		p uintptr
		t reflect.Type
	}
	seen := map[key]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[key{v.Pointer(), v.Type()}] {
				return
			}
			seen[key{v.Pointer(), v.Type()}] = true
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			if v.Type() == reqType {
				if v.FieldByName("recv").Bool() {
					recvs++
					if !v.FieldByName("payload").IsNil() {
						held++
					}
				}
				return
			}
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			if v.IsNil() || seen[key{v.Pointer(), v.Type()}] {
				return
			}
			seen[key{v.Pointer(), v.Type()}] = true
			fallthrough
		case reflect.Array:
			if !holdsRefs(v.Type().Elem()) {
				return
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		}
	}
	walk(reflect.ValueOf(s))
	return held, recvs
}

// holdsRefs reports whether values of t can lead to a Request: basic
// scalars cannot, so their (large) slices are skipped.
func holdsRefs(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128, reflect.String:
		return false
	}
	return true
}
