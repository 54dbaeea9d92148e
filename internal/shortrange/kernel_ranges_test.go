package shortrange

import (
	"math"
	"math/rand"
	"testing"
)

// Apply is the copy-list scalar oracle: it computes the short-range force
// of every neighbor in the gathered list nx/ny/nz on every target,
// accumulating accelerations, and returns the number of pair interactions.
// Each target sums its terms 2-way unrolled in list order with the cutoff
// folded in as a select. It is the kernel behind the copy-walk oracles
// (meshCopyAdapter, copyForces) and the scalar baselines
// of BenchmarkKernelInteraction; production walks use ApplyRanges.
func (k *Kernel) Apply(lx, ly, lz, nx, ny, nz, ax, ay, az []float32) int64 {
	rc2, eps, gm := k.rc2, k.eps, k.gm
	c0, c1, c2, c3, c4, c5 := k.c[0], k.c[1], k.c[2], k.c[3], k.c[4], k.c[5]
	n := len(nx)
	ny = ny[:n]
	nz = nz[:n]
	for i := range lx {
		xi, yi, zi := lx[i], ly[i], lz[i]
		var sx, sy, sz float32
		j := 0
		for ; j+1 < n; j += 2 {
			dx0 := nx[j] - xi
			dy0 := ny[j] - yi
			dz0 := nz[j] - zi
			dx1 := nx[j+1] - xi
			dy1 := ny[j+1] - yi
			dz1 := nz[j+1] - zi
			s0 := dx0*dx0 + dy0*dy0 + dz0*dz0
			s1 := dx1*dx1 + dy1*dy1 + dz1*dz1
			f0 := (rsqrt3(s0+eps) - poly5(s0, c0, c1, c2, c3, c4, c5)) * cutMask(s0, rc2)
			f1 := (rsqrt3(s1+eps) - poly5(s1, c0, c1, c2, c3, c4, c5)) * cutMask(s1, rc2)
			sx += dx0*f0 + dx1*f1
			sy += dy0*f0 + dy1*f1
			sz += dz0*f0 + dz1*f1
		}
		if j < n {
			dx := nx[j] - xi
			dy := ny[j] - yi
			dz := nz[j] - zi
			s := dx*dx + dy*dy + dz*dz
			f := (rsqrt3(s+eps) - poly5(s, c0, c1, c2, c3, c4, c5)) * cutMask(s, rc2)
			sx += dx * f
			sy += dy * f
			sz += dz * f
		}
		ax[i] += gm * sx
		ay[i] += gm * sy
		az[i] += gm * sz
	}
	return int64(len(lx)) * int64(n)
}

// refRangeForces is the float64-accumulation reference for the range
// kernels: per-pair terms are computed in float32 through the same FSR
// helpers every path inlines (so terms are bit-identical across
// implementations), and only the accumulation is exact. The range bodies
// and the Apply oracle differ from this reference only by float32
// summation order. Returns the forces and, per target, the
// sum of |term| magnitudes that scales the admissible error.
func refRangeForces(k *Kernel, lx, ly, lz, px, py, pz []float32, ranges [][2]int32) (ax, ay, az, mag []float64) {
	nt := len(lx)
	ax = make([]float64, nt)
	ay = make([]float64, nt)
	az = make([]float64, nt)
	mag = make([]float64, nt)
	for i := 0; i < nt; i++ {
		var sx, sy, sz, m float64
		for _, r := range ranges {
			for j := r[0]; j < r[1]; j++ {
				dx := px[j] - lx[i]
				dy := py[j] - ly[i]
				dz := pz[j] - lz[i]
				s := dx*dx + dy*dy + dz*dz
				f := k.FSR(s)
				sx += float64(dx) * float64(f)
				sy += float64(dy) * float64(f)
				sz += float64(dz) * float64(f)
				m += math.Abs(float64(dx)*float64(f)) + math.Abs(float64(dy)*float64(f)) + math.Abs(float64(dz)*float64(f))
			}
		}
		ax[i] = float64(k.gm) * sx
		ay[i] = float64(k.gm) * sy
		az[i] = float64(k.gm) * sz
		mag[i] = float64(k.gm) * m
	}
	return
}

// TestApplyRangesULPBound is the float64 accuracy pin of ApplyRanges (and
// Apply, its scalar oracle): per-pair float32 terms are identical across
// paths, so each path's deviation from the float64 reference is bounded by
// the float32 summation error n·eps32·Σ|term|, whatever order it sums in.
func TestApplyRangesULPBound(t *testing.T) {
	const nt, cell = 37, 19 // deliberately not multiples of the tile/lane width
	k, lx, ly, lz, px, py, pz, ranges := benchKernelSetup(nt, cell)
	var n int64
	for _, r := range ranges {
		n += int64(r[1] - r[0])
	}
	refX, refY, refZ, mag := refRangeForces(k, lx, ly, lz, px, py, pz, ranges)

	check := func(name string, ax, ay, az []float32) {
		t.Helper()
		const eps32 = 1.2e-7
		for i := range ax {
			tol := float64(n)*eps32*mag[i] + 1e-12
			for c, got := range [3]float64{float64(ax[i]), float64(ay[i]), float64(az[i])} {
				ref := [3]float64{refX[i], refY[i], refZ[i]}[c]
				if math.Abs(got-ref) > tol {
					t.Fatalf("%s: target %d comp %d: got %g ref %g (|Δ|=%g > tol %g)",
						name, i, c, got, ref, math.Abs(got-ref), tol)
				}
			}
		}
	}

	ax := make([]float32, nt)
	ay := make([]float32, nt)
	az := make([]float32, nt)
	if got := k.ApplyRanges(lx, ly, lz, px, py, pz, ranges, ax, ay, az); got != int64(nt)*n {
		t.Fatalf("ApplyRanges interaction count = %d, want %d", got, int64(nt)*n)
	}
	check("ApplyRanges(dispatch)", ax, ay, az)

	// The copy-path oracle obeys the same bound: gather the spans and Apply.
	var nx, ny, nz []float32
	for _, r := range ranges {
		nx = append(nx, px[r[0]:r[1]]...)
		ny = append(ny, py[r[0]:r[1]]...)
		nz = append(nz, pz[r[0]:r[1]]...)
	}
	for i := range ax {
		ax[i], ay[i], az[i] = 0, 0, 0
	}
	k.Apply(lx, ly, lz, nx, ny, nz, ax, ay, az)
	check("Apply(copy oracle)", ax, ay, az)
}

// TestKernelEdgeCases covers the kernel boundary behavior the walks rely on.
func TestKernelEdgeCases(t *testing.T) {
	poly := [6]float64{0.25, -0.05, 0.01, -1e-3, 8e-5, -2e-6}

	t.Run("at-cutoff", func(t *testing.T) {
		// rcut=2 makes rc2=4 exactly representable; a neighbor at distance
		// exactly 2 has s == rc2 and must contribute exactly zero (the mask
		// is s < rc2, matching the seed's s >= rc2 branch).
		k := NewKernel(poly, 2.0, 0.01, 1.0)
		if f := k.FSR(4.0); f != 0 {
			t.Fatalf("FSR(rc2) = %g, want exactly 0", f)
		}
		if f := k.FSR(math.Float32frombits(math.Float32bits(4.0) - 1)); f == 0 {
			t.Fatalf("FSR(rc2-ulp) = 0, want nonzero")
		}
		lx := []float32{0}
		ax := make([]float32, 1)
		ay := make([]float32, 1)
		az := make([]float32, 1)
		px := []float32{2, 0, 0, 0, 2} // two at exactly rcut, three inside
		py := []float32{0, 1, 0, 1, 0}
		pz := []float32{0, 0, 1, 1, 0}
		k.ApplyRanges(lx, lx, lx, px, py, pz, [][2]int32{{0, 5}}, ax, ay, az)
		k2 := NewKernel(poly, 3.0, 0.01, 1.0) // same poly, wider cutoff
		ax2 := make([]float32, 1)
		ay2 := make([]float32, 1)
		az2 := make([]float32, 1)
		k2.ApplyRanges(lx, lx, lx, px[1:4], py[1:4], pz[1:4], [][2]int32{{0, 3}}, ax2, ay2, az2)
		if ax[0] != ax2[0] || ay[0] != ay2[0] || az[0] != az2[0] {
			t.Fatalf("neighbors at exactly r_cut contributed: (%v %v %v) vs (%v %v %v)",
				ax[0], ay[0], az[0], ax2[0], ay2[0], az2[0])
		}
	})

	t.Run("zero-eps", func(t *testing.T) {
		// eps=0 is legal for distinct particles: s>0 keeps the rsqrt finite.
		k := NewKernel(poly, 3.0, 0.0, 1.0)
		lx, ly, lz := []float32{0}, []float32{0}, []float32{0}
		px, py, pz := []float32{1, 2}, []float32{1, 0}, []float32{0, 1}
		ax := make([]float32, 1)
		ay := make([]float32, 1)
		az := make([]float32, 1)
		k.ApplyRanges(lx, ly, lz, px, py, pz, [][2]int32{{0, 2}}, ax, ay, az)
		for _, v := range []float32{ax[0], ay[0], az[0]} {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("eps=0 with distinct particles produced %v", v)
			}
		}
		if ax[0] == 0 && ay[0] == 0 && az[0] == 0 {
			t.Fatal("eps=0 force is identically zero")
		}
	})

	t.Run("empty-neighbors", func(t *testing.T) {
		k := NewKernel(poly, 3.0, 0.01, 1.0)
		lx := []float32{1, 2, 3}
		ax := make([]float32, 3)
		if got := k.ApplyRanges(lx, lx, lx, nil, nil, nil, nil, ax, ax, ax); got != 0 {
			t.Fatalf("empty range list: %d interactions, want 0", got)
		}
		if got := k.ApplyRanges(lx, lx, lx, lx, lx, lx, [][2]int32{{1, 1}, {3, 3}}, ax, ax, ax); got != 0 {
			t.Fatalf("empty spans: %d interactions, want 0", got)
		}
		for _, v := range ax {
			if v != 0 {
				t.Fatalf("empty neighbor list accumulated force %v", v)
			}
		}
	})

	t.Run("single-particle-leaf", func(t *testing.T) {
		// One target against itself (s=0): with eps>0 the self-term has
		// dx=0 so it contributes ±0, exactly like the copy-path oracle.
		k := NewKernel(poly, 3.0, 0.05, 1.0)
		one := []float32{1.5}
		ax := make([]float32, 1)
		ay := make([]float32, 1)
		az := make([]float32, 1)
		if got := k.ApplyRanges(one, one, one, one, one, one, [][2]int32{{0, 1}}, ax, ay, az); got != 1 {
			t.Fatalf("interactions = %d, want 1", got)
		}
		if ax[0] != 0 || ay[0] != 0 || az[0] != 0 {
			t.Fatalf("self-interaction nonzero: %v %v %v", ax[0], ay[0], az[0])
		}
	})

	t.Run("randomized-fsr-sweep", func(t *testing.T) {
		// The dispatch kernel must produce per-pair terms
		// bit-identical to FSR: probe with 1-neighbor spans (single term,
		// no accumulation ambiguity) across random s values.
		k := NewKernel(poly, 3.0, 0.01, 1.0)
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 200; trial++ {
			xi := float32(rng.Float32() * 4) // rounded: never fused into dx
			xj := float32(rng.Float32() * 4)
			dx := xj - xi
			s := dx * dx
			want := dx * k.FSR(s) // gm=1
			lx, z := []float32{xi}, []float32{0}
			ax := make([]float32, 1)
			ay := make([]float32, 1)
			az := make([]float32, 1)
			k.ApplyRanges(lx, z, z, []float32{xj}, []float32{0}, []float32{0}, [][2]int32{{0, 1}}, ax, ay, az)
			if math.Float32bits(ax[0]) != math.Float32bits(want) && !(ax[0] == 0 && want == 0) {
				t.Fatalf("trial %d: single-pair term %v, FSR oracle %v", trial, ax[0], want)
			}
		}
	})
}
