package grid

import "hacc/internal/par"

// InterpCICParallel is the threaded CIC gather (§VI: "fully thread all the
// components of the long-range solver"). Interpolation only reads the field,
// so there are no write hazards and plain particle-range sharding over the
// worker pool suffices; each particle's output slot is its own, so the
// result is bitwise identical to the serial InterpCIC for any pool size.
func InterpCICParallel(f *Field, xs, ys, zs []float32, out []float32, scale float64, pool *par.Pool) {
	pool.For(len(xs), func(lo, hi int) {
		InterpCIC(f, xs[lo:hi], ys[lo:hi], zs[lo:hi], out[lo:hi], scale)
	})
}
