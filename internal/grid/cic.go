package grid

import "math"

// DepositCIC spreads unit-weight×mass particles onto the field's grid nodes
// with Cloud-In-Cell weights. Positions are in global grid units; node i
// carries weight (1−f) and node i+1 weight f, per axis, with f the
// fractional offset. Particles may lie up to Ghost cells outside the box
// (the spill lands in the halo and is merged by Exchanger.Accumulate).
//
// Deliberately single-threaded: the paper lists threading the forward CIC
// as future work (§VI), and accumulation races are the reason.
func DepositCIC(f *Field, xs, ys, zs []float32, mass float64) {
	for i := range xs {
		depositOne(f, xs[i], ys[i], zs[i], mass)
	}
}

// depositOne spreads a single particle's CIC cloud.
func depositOne(f *Field, x, y, z float32, mass float64) {
	xf, yf, zf := float64(x), float64(y), float64(z)
	ix, iy, iz := int(math.Floor(xf)), int(math.Floor(yf)), int(math.Floor(zf))
	fx, fy, fz := xf-float64(ix), yf-float64(iy), zf-float64(iz)
	gx, gy, gz := 1-fx, 1-fy, 1-fz
	i000, i100, i010, i110, iz1 := f.cloud(ix, iy, iz)
	f.Data[i000] += mass * gx * gy * gz
	f.Data[i100] += mass * fx * gy * gz
	f.Data[i010] += mass * gx * fy * gz
	f.Data[i110] += mass * fx * fy * gz
	f.Data[i000+iz1] += mass * gx * gy * fz
	f.Data[i100+iz1] += mass * fx * gy * fz
	f.Data[i010+iz1] += mass * gx * fy * fz
	f.Data[i110+iz1] += mass * fx * fy * fz
}

// InterpCIC gathers the field at each particle position with CIC weights
// (the adjoint of DepositCIC, which keeps the scheme momentum-conserving)
// and stores scale·value into out. Safe to call concurrently on disjoint
// particle ranges: it only reads the field.
func InterpCIC(f *Field, xs, ys, zs []float32, out []float32, scale float64) {
	for i := range xs {
		x, y, z := float64(xs[i]), float64(ys[i]), float64(zs[i])
		ix, iy, iz := int(math.Floor(x)), int(math.Floor(y)), int(math.Floor(z))
		fx, fy, fz := x-float64(ix), y-float64(iy), z-float64(iz)
		gx, gy, gz := 1-fx, 1-fy, 1-fz

		i000, i100, i010, i110, iz1 := f.cloud(ix, iy, iz)

		v := f.Data[i000]*gx*gy*gz +
			f.Data[i100]*fx*gy*gz +
			f.Data[i010]*gx*fy*gz +
			f.Data[i110]*fx*fy*gz +
			f.Data[i000+iz1]*gx*gy*fz +
			f.Data[i100+iz1]*fx*gy*fz +
			f.Data[i010+iz1]*gx*fy*fz +
			f.Data[i110+iz1]*fx*fy*fz
		out[i] = float32(scale * v)
	}
}
