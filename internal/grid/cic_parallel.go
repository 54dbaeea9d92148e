package grid

import (
	"math"
	"runtime"
	"sync"

	"hacc/internal/par"
)

// DepositCICParallel is the threaded forward-CIC deposit the paper lists as
// the next optimization of the long-range solver (§VI: "fully thread all
// the components of the long-range solver, in particular the forward CIC
// algorithm"). Particles are binned by the local x-plane of their base
// cell and workers own disjoint plane slabs; a particle's CIC cloud spans
// two x-planes, so any cloud whose two planes fall in different slabs
// (slab boundaries, and periodic wrap when one rank spans the whole axis)
// is deferred to a short serial phase. No plane ever has two writers.
//
// Results equal the serial deposit up to floating-point summation order.
func DepositCICParallel(f *Field, xs, ys, zs []float32, mass float64, threads int) {
	n := len(xs)
	if threads < 1 {
		threads = runtime.GOMAXPROCS(0)
	}
	// Extended x-planes available to this field (including ghosts).
	planes := f.ext[0]
	maxThreads := planes / 2
	if threads > maxThreads {
		threads = maxThreads
	}
	if threads <= 1 || n < 4096 {
		DepositCIC(f, xs, ys, zs, mass)
		return
	}
	// Bin particles by the local extended x-plane of their base cell.
	planeOf := make([]int32, n)
	counts := make([]int32, threads+1)
	// Slab boundaries in plane space: slab t covers [t*planes/threads, …).
	slabOf := func(plane int) int {
		t := plane * threads / planes
		if t >= threads {
			t = threads - 1
		}
		return t
	}
	for i := 0; i < n; i++ {
		ix := int(math.Floor(float64(xs[i])))
		lx := localCoord(ix, f.Box.Lo[0], f.size[0], f.N[0], f.Ghost) + f.Ghost
		planeOf[i] = int32(lx)
		counts[slabOf(lx)+1]++
	}
	for t := 0; t < threads; t++ {
		counts[t+1] += counts[t]
	}
	order := make([]int32, n)
	cursor := make([]int32, threads)
	copy(cursor, counts[:threads])
	for i := 0; i < n; i++ {
		t := slabOf(int(planeOf[i]))
		order[cursor[t]] = int32(i)
		cursor[t]++
	}
	// Phase 1: every worker deposits the clouds fully contained in its
	// slab; clouds straddling a slab boundary (including the periodic
	// wrap) are deferred to phase 2.
	var deferredMu sync.Mutex
	var deferred []int32
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			var mine []int32
			for _, idx := range order[counts[t]:counts[t+1]] {
				ix := int(math.Floor(float64(xs[idx])))
				p2 := localCoord(ix+1, f.Box.Lo[0], f.size[0], f.N[0], f.Ghost) + f.Ghost
				if slabOf(p2) != t {
					mine = append(mine, idx)
					continue
				}
				depositOne(f, xs[idx], ys[idx], zs[idx], mass)
			}
			if len(mine) > 0 {
				deferredMu.Lock()
				deferred = append(deferred, mine...)
				deferredMu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	// Phase 2: boundary clouds, serial (a small fraction ~threads/planes).
	for _, idx := range deferred {
		depositOne(f, xs[idx], ys[idx], zs[idx], mass)
	}
}

// InterpCICParallel is the threaded CIC gather (§VI: "fully thread all the
// components of the long-range solver"). Interpolation only reads the field,
// so unlike the deposit there are no write hazards and plain particle-range
// sharding over the worker pool suffices; each particle's output slot is its
// own, so the result is bitwise identical to the serial InterpCIC for any
// pool size.
func InterpCICParallel(f *Field, xs, ys, zs []float32, out []float32, scale float64, pool *par.Pool) {
	pool.For(len(xs), func(lo, hi int) {
		InterpCIC(f, xs[lo:hi], ys[lo:hi], zs[lo:hi], out[lo:hi], scale)
	})
}
