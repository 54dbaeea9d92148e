package par

import (
	"sync/atomic"
	"testing"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	pool := NewPool(4)
	const n = 100000
	marks := make([]int32, n)
	for rep := 0; rep < 20; rep++ {
		for i := range marks {
			marks[i] = 0
		}
		pool.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				marks[i]++
			}
		})
		for i, m := range marks {
			if m != 1 {
				t.Fatalf("rep %d: index %d visited %d times", rep, i, m)
			}
		}
	}
}

func TestForSmallRunsSerial(t *testing.T) {
	pool := NewPool(8)
	var total int64
	pool.For(100, func(lo, hi int) {
		atomic.AddInt64(&total, int64(hi-lo))
	})
	if total != 100 {
		t.Fatalf("covered %d of 100", total)
	}
}

func TestForZeroAndSingleWorker(t *testing.T) {
	for _, workers := range []int{0, 1} {
		pool := NewPool(workers)
		if pool.Workers() != 1 {
			t.Fatalf("workers=%d: pool has %d workers, want 1", workers, pool.Workers())
		}
		ran := false
		pool.For(10, func(lo, hi int) {
			if lo != 0 || hi != 10 {
				t.Fatalf("serial pool sharded: [%d,%d)", lo, hi)
			}
			ran = true
		})
		if !ran {
			t.Fatal("body never ran")
		}
	}
}

func TestRunDistinctWorkerIDs(t *testing.T) {
	pool := NewPool(4)
	for rep := 0; rep < 10; rep++ {
		var mask atomic.Int64
		pool.Run(0, func(w int) {
			mask.Add(1 << w)
		})
		if mask.Load() != 0b1111 {
			t.Fatalf("rep %d: worker ids not distinct/complete: %b", rep, mask.Load())
		}
	}
}

func TestRunClampsK(t *testing.T) {
	pool := NewPool(3)
	var count atomic.Int64
	pool.Run(10, func(w int) {
		if w < 0 || w >= 3 {
			t.Errorf("worker id %d out of range", w)
		}
		count.Add(1)
	})
	if count.Load() != 3 {
		t.Fatalf("ran %d bodies, want 3", count.Load())
	}
}

func BenchmarkPoolForAllocs(b *testing.B) {
	pool := NewPool(4)
	data := make([]float32, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.For(len(data), func(lo, hi int) {
			for j := lo; j < hi; j++ {
				data[j] += 1
			}
		})
	}
}
