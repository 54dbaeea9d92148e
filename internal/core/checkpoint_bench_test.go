package core

// Checkpoint I/O benchmarks (PR 5). BenchmarkCheckpoint measures the warm
// collective write path — MB/s of particle-state throughput and allocs/op
// (the data path reuses writer-owned scratch, so allocations are O(1)
// bookkeeping, not O(particles)) — and BenchmarkRestore the matching read
// path including CRC verification and replica restore. See the DESIGN.md
// benchmark index.

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"hacc/internal/mpi"
)

// ckptBytes is the per-container payload: 6 float32 columns + 1 uint64 ID
// column per particle, actives (state) plus replicas.
func ckptBytes(s *Simulation) int64 {
	per := int64(6*4 + 8)
	return per * int64(s.Dom.Active.Len()+s.Dom.Passive.Len())
}

func benchSim(b *testing.B, ranks int) (*Simulation, func()) {
	b.Helper()
	// One-rank world, held open while the benchmark loop drives the
	// simulation from the test goroutine (size-1 collectives never block).
	if ranks != 1 {
		b.Fatal("benchSim supports one rank")
	}
	done := make(chan struct{})
	ready := make(chan *Simulation)
	go func() {
		err := mpi.Run(1, func(c *mpi.Comm) {
			s, err := New(c, Config{
				NGrid: 32, NParticles: 32, BoxMpc: 150,
				ZInit: 24, ZFinal: 2, Steps: 1, Solver: PMOnly, Seed: 1,
			})
			if err != nil {
				panic(err)
			}
			ready <- s
			<-done
		})
		if err != nil {
			panic(err)
		}
	}()
	var once sync.Once
	return <-ready, func() { once.Do(func() { close(done) }) }
}

func BenchmarkCheckpoint(b *testing.B) {
	s, stop := benchSim(b, 1)
	defer stop()
	dir := filepath.Join(b.TempDir(), "ck")
	if err := s.Checkpoint(dir); err != nil { // warm the writer + scratch
		b.Fatal(err)
	}
	b.SetBytes(ckptBytes(s))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Checkpoint(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestore times Restore, CRC verification and replica restore
// included, from a checkpoint written once outside the timer; every
// iteration restores into a fresh in-process world:
//   - pmonly-1rank: benchSim's 32³ PMOnly state on one rank (no kernel fit);
//   - tree-uniform: BenchmarkNew's tree-uniform shape on 2 ranks, where
//     the short-range kernel fit dominates.
func BenchmarkRestore(b *testing.B) {
	b.Run("pmonly-1rank", func(b *testing.B) {
		s, stop := benchSim(b, 1)
		defer stop()
		dir := filepath.Join(b.TempDir(), "ck")
		if err := s.Checkpoint(dir); err != nil {
			b.Fatal(err)
		}
		bytes := ckptBytes(s)
		stop() // the restore worlds are spun up per iteration
		benchRestore(b, 1, dir, bytes)
	})
	b.Run("tree-uniform", func(b *testing.B) {
		dir := filepath.Join(b.TempDir(), "ck")
		var bytes atomic.Int64
		err := mpi.Run(2, func(c *mpi.Comm) {
			s, err := New(c, treeUniformBench)
			if err != nil {
				panic(err)
			}
			if err := s.Checkpoint(dir); err != nil {
				panic(err)
			}
			bytes.Add(ckptBytes(s))
		})
		if err != nil {
			b.Fatal(err)
		}
		benchRestore(b, 2, dir, bytes.Load())
	})
}

func benchRestore(b *testing.B, ranks int, dir string, bytes int64) {
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(ranks, func(c *mpi.Comm) {
			if _, err := Restore(c, dir, nil); err != nil {
				panic(err)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
