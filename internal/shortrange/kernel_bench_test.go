package shortrange

import (
	"math/rand"
	"testing"
)

// benchPoly is a fixed coefficient set with the magnitudes FitGridForce
// produces for the default σ=0.8 filter (hardcoded so the bench-smoke CI
// step does not pay for a grid-force fit).
var benchPoly = [6]float64{0.2695, -0.0520, 0.0101, -1.25e-3, 8.6e-5, -2.45e-6}

// benchKernelSetup builds a synthetic leaf-vs-27-cell problem in the shape
// the walks produce: nt targets against 27 cells of `cell` neighbors laid
// out contiguously in one SoA array, addressed either as a pre-gathered
// copy (the old path) or as 9 coalesced (start,end) spans (the new path —
// the chaining mesh's z-contiguous CSR layout folds each (dx,dy) column of
// three cells into one span).
func benchKernelSetup(nt, cell int) (k *Kernel, lx, ly, lz, px, py, pz []float32, ranges [][2]int32) {
	k = NewKernel(benchPoly, 3.0, 0.01, 0.1)
	rng := rand.New(rand.NewSource(42))
	mk := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = rng.Float32() * 9
		}
		return v
	}
	lx, ly, lz = mk(nt), mk(nt), mk(nt)
	nn := 27 * cell
	px, py, pz = mk(nn), mk(nn), mk(nn)
	for c := 0; c < 9; c++ {
		ranges = append(ranges, [2]int32{int32(3 * c * cell), int32(3 * (c + 1) * cell)})
	}
	return
}

// BenchmarkKernelInteraction is the ns/interaction micro-benchmark for the
// short-range force kernel (DESIGN.md bench index). Sub-benchmarks:
//
//	scalar-copy:  the pre-PR 7 leaf evaluation — gather all 27 cells into
//	              contiguous scratch with append copies, then the 2-way
//	              unrolled scalar Apply oracle.
//	scalar:       Apply alone on a pre-gathered list (isolates the gather
//	              cost from the kernel cost).
//	ranges-<isa>: ApplyRanges over coalesced spans, copy-free, forced onto
//	              each body the host runs: portable everywhere, plus sse2
//	              and avx2 on amd64. The last one is the KernelISA() body.
//
// The neighbors here are spatially incoherent (uniform random over a 9-cell
// cube, r_cut 3), so few vectors are wholly outside r_cut: the worst case
// for the kernels' early-out.
func BenchmarkKernelInteraction(b *testing.B) {
	const nt, cell = 64, 64
	k, lx, ly, lz, px, py, pz, ranges := benchKernelSetup(nt, cell)
	nn := len(px)
	ax := make([]float32, nt)
	ay := make([]float32, nt)
	az := make([]float32, nt)
	perIter := float64(nt) * float64(nn)

	b.Run("scalar-copy", func(b *testing.B) {
		var nx, ny, nz []float32
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nx, ny, nz = nx[:0], ny[:0], nz[:0]
			for _, r := range ranges {
				nx = append(nx, px[r[0]:r[1]]...)
				ny = append(ny, py[r[0]:r[1]]...)
				nz = append(nz, pz[r[0]:r[1]]...)
			}
			k.Apply(lx, ly, lz, nx, ny, nz, ax, ay, az)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*perIter), "ns/interaction")
	})
	b.Run("scalar", func(b *testing.B) {
		nx := append([]float32(nil), px...)
		ny := append([]float32(nil), py...)
		nz := append([]float32(nil), pz...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Apply(lx, ly, lz, nx, ny, nz, ax, ay, az)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*perIter), "ns/interaction")
	})
	for _, rb := range rangeBodies {
		b.Run("ranges-"+rb.isa, func(b *testing.B) {
			restore, _ := forceKernelISA(rb.isa)
			defer restore()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.ApplyRanges(lx, ly, lz, px, py, pz, ranges, ax, ay, az)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*perIter), "ns/interaction")
		})
	}
}
