package shortrange

import (
	"math"
	"math/rand"
	"testing"

	"hacc/internal/fft"
	"hacc/internal/spectral"
)

// solveReference is the per-source form of serialPM.solve: a fresh FFT plan
// and every k-space factor recomputed mode by mode for each source.
func solveReference(n int, sigma float64, ns int, src [3]float64) [3][]float64 {
	plan := fft.NewPlan3(n, n, n)
	rho := make([]complex128, n*n*n)
	ix, iy, iz := int(math.Floor(src[0])), int(math.Floor(src[1])), int(math.Floor(src[2]))
	fx, fy, fz := src[0]-float64(ix), src[1]-float64(iy), src[2]-float64(iz)
	for dx := 0; dx < 2; dx++ {
		for dy := 0; dy < 2; dy++ {
			for dz := 0; dz < 2; dz++ {
				wx, wy, wz := 1-fx, 1-fy, 1-fz
				if dx == 1 {
					wx = fx
				}
				if dy == 1 {
					wy = fy
				}
				if dz == 1 {
					wz = fz
				}
				i := ((mod(ix+dx, n))*n+mod(iy+dy, n))*n + mod(iz+dz, n)
				rho[i] += complex(wx*wy*wz, 0)
			}
		}
	}
	plan.Forward(rho)
	const coupling = 4 * math.Pi
	psi := rho
	for mx := 0; mx < n; mx++ {
		kx := spectral.KMode(mx, n)
		for my := 0; my < n; my++ {
			ky := spectral.KMode(my, n)
			for mz := 0; mz < n; mz++ {
				i := (mx*n+my)*n + mz
				if mx == 0 && my == 0 && mz == 0 {
					psi[i] = 0
					continue
				}
				kz := spectral.KMode(mz, n)
				g := 1 / spectral.Influence6(kx, ky, kz)
				f := spectral.Filter(math.Sqrt(kx*kx+ky*ky+kz*kz), sigma, ns)
				psi[i] *= complex(coupling*f*g, 0)
			}
		}
	}
	var acc [3][]float64
	for d := 0; d < 3; d++ {
		comp := make([]complex128, len(psi))
		for mx := 0; mx < n; mx++ {
			for my := 0; my < n; my++ {
				for mz := 0; mz < n; mz++ {
					i := (mx*n+my)*n + mz
					var dk float64
					switch d {
					case 0:
						dk = spectral.GradSL4(spectral.KMode(mx, n))
					case 1:
						dk = spectral.GradSL4(spectral.KMode(my, n))
					default:
						dk = spectral.GradSL4(spectral.KMode(mz, n))
					}
					v := psi[i]
					comp[i] = complex(imag(v)*dk, -real(v)*dk)
				}
			}
		}
		plan.Inverse(comp)
		acc[d] = make([]float64, len(comp))
		for i, v := range comp {
			acc[d][i] = real(v)
		}
	}
	return acc
}

// TestSerialPMTablesMatchPerSource pins the fit's solver, whose k-space
// tables are built once and reused for every source, bit for bit against
// the per-source form on the whole field (solve, no reach), over the fit's
// default grid and offset draws.
func TestSerialPMTablesMatchPerSource(t *testing.T) {
	var o FitOptions
	o.setDefaults()
	n := o.GridN
	probe := newSerialPM(n, o.Sigma, o.Ns)
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed + 1))
		for off := 0; off < o.Offsets; off++ {
			src := [3]float64{
				float64(n)/2 + rng.Float64() - 0.5,
				float64(n)/2 + rng.Float64() - 0.5,
				float64(n)/2 + rng.Float64() - 0.5,
			}
			probe.solve(src)
			want := solveReference(n, o.Sigma, o.Ns, src)
			for d := 0; d < 3; d++ {
				if len(probe.acc[d]) != len(want[d]) {
					t.Fatalf("axis %d: %d cells stored, want the whole field's %d", d, len(probe.acc[d]), len(want[d]))
				}
				for i, w := range want[d] {
					if got := probe.acc[d][i]; math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("seed %d offset %d axis %d cell %d: %v want %v", seed, off, d, i, got, w)
					}
				}
			}
		}
	}
}

// TestSolveWithinMatchesSolve pins the windowed solve bit for bit against
// the whole-field solve on every cell of its window, for sources in the
// middle of the grid and next to its edges, where the window wraps, and
// checks that the window holds every cell a probe within reach reads.
func TestSolveWithinMatchesSolve(t *testing.T) {
	var o FitOptions
	o.setDefaults()
	n, reach := o.GridN, o.RCut+0.5
	full := newSerialPM(n, o.Sigma, o.Ns)
	win := newSerialPM(n, o.Sigma, o.Ns)
	for _, src := range [][3]float64{
		{16.2, 15.7, 16.4},
		{0.3, 31.6, 16.1}, // wraps below x = 0 and above y = n
		{31.9, 0.02, 2.5},
	} {
		full.solve(src)
		win.solveWithin(src, reach)
		for d := 0; d < 3; d++ {
			w := win.win[d]
			if w.Len >= n {
				t.Fatalf("src %v axis %d: window %+v spans the grid", src, d, w)
			}
			if lo := int(math.Floor(src[d] - reach)); mod(lo-w.Lo, n) >= w.Len {
				t.Fatalf("src %v axis %d: window %+v misses cell %d", src, d, w, mod(lo, n))
			}
			if hi := int(math.Floor(src[d]+reach)) + 1; mod(hi-w.Lo, n) >= w.Len {
				t.Fatalf("src %v axis %d: window %+v misses cell %d", src, d, w, mod(hi, n))
			}
		}
		w0, w1, w2 := win.win[0], win.win[1], win.win[2]
		for d := 0; d < 3; d++ {
			if len(win.acc[d]) != w0.Len*w1.Len*w2.Len {
				t.Fatalf("src %v axis %d: %d cells stored, window holds %d", src, d, len(win.acc[d]), w0.Len*w1.Len*w2.Len)
			}
			for j0 := 0; j0 < w0.Len; j0++ {
				for j1 := 0; j1 < w1.Len; j1++ {
					for j2 := 0; j2 < w2.Len; j2++ {
						g := (mod(w0.Lo+j0, n)*n+mod(w1.Lo+j1, n))*n + mod(w2.Lo+j2, n)
						got := win.acc[d][(j0*w1.Len+j1)*w2.Len+j2]
						if math.Float64bits(got) != math.Float64bits(full.acc[d][g]) {
							t.Fatalf("src %v axis %d cell %d: %v, whole field %v", src, d, g, got, full.acc[d][g])
						}
					}
				}
			}
		}
		rng := rand.New(rand.NewSource(5))
		for range 200 {
			dir := randDir(rng)
			r := reach * rng.Float64()
			px, py, pz := src[0]+r*dir[0], src[1]+r*dir[1], src[2]+r*dir[2]
			if got, want := win.accelAt(px, py, pz), full.accelAt(px, py, pz); got != want {
				t.Fatalf("src %v probe (%v, %v, %v): %v, whole field %v", src, px, py, pz, got, want)
			}
		}
	}
}

// TestAccelAtOutsideWindowPanics checks that a probe reading a cell the
// windowed solve did not store panics instead of returning stale values.
func TestAccelAtOutsideWindowPanics(t *testing.T) {
	var o FitOptions
	o.setDefaults()
	pm := newSerialPM(o.GridN, o.Sigma, o.Ns)
	src := [3]float64{0.3, 16.5, 16.5}
	pm.solveWithin(src, o.RCut+0.5)
	pm.accelAt(src[0]-o.RCut, src[1], src[2]) // inside
	for _, p := range [][3]float64{
		{src[0] + 8, src[1], src[2]},
		{src[0], src[1] - 8, src[2]},
		{src[0], src[1], src[2] + 16},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("accelAt%v outside window %+v did not panic", p, pm.win)
				}
			}()
			pm.accelAt(p[0], p[1], p[2])
		}()
	}
}

// TestSplitFitMatchesFitGridForce pins the split fit — each part's
// SampleGridForce share, concatenated in part order, fitted by FitSamples —
// bitwise against the one-part FitGridForce at 1–8 parts (parts beyond
// Offsets own no offset), for three seeds and one non-default
// Offsets/Dirs, and pins the default seed-1 coefficients to their recorded
// bits, so neither the split nor the tabled solver moves the force law.
func TestSplitFitMatchesFitGridForce(t *testing.T) {
	seed1 := [6]uint64{0x3fd0f92d6880d5ea, 0xbfb1dd541d5193ef, 0x3f82963f3063b97e,
		0xbf4481860dd8bfaa, 0x3ef4e6f25c2eb150, 0xbe86e8a33928025f}
	for _, o := range []FitOptions{{Seed: 1}, {Seed: 7}, {Seed: 42}, {Seed: 7, Offsets: 5, Dirs: 3}} {
		want, err := FitGridForce(o)
		if err != nil {
			t.Fatal(err)
		}
		if o.Seed == 1 && o.Offsets == 0 {
			for i, c := range want.Poly {
				if math.Float64bits(c) != seed1[i] {
					t.Fatalf("seed 1 coefficient %d: %#016x, recorded %#016x", i, math.Float64bits(c), seed1[i])
				}
			}
		}
		for parts := 1; parts <= 8; parts++ {
			var all []float64
			for q := 0; q < parts; q++ {
				s, err := SampleGridForce(o, q, parts)
				if err != nil {
					t.Fatal(err)
				}
				all = append(all, s...)
			}
			got, err := FitSamples(o, parts, all)
			if err != nil {
				t.Fatalf("%+v parts %d: %v", o, parts, err)
			}
			for i := range got.Poly {
				if math.Float64bits(got.Poly[i]) != math.Float64bits(want.Poly[i]) {
					t.Errorf("%+v parts %d coefficient %d: %v want %v", o, parts, i, got.Poly[i], want.Poly[i])
				}
			}
			if math.Float64bits(got.RMSErr) != math.Float64bits(want.RMSErr) || got.Samples != want.Samples {
				t.Errorf("%+v parts %d: rms %v samples %d, want %v %d", o, parts, got.RMSErr, got.Samples, want.RMSErr, want.Samples)
			}
		}
	}
}

// TestFitRejectsBadShares checks the split fit's argument errors: a part
// outside [0, parts), a grid too small for the cut, and a sample set that
// is missing a part's share.
func TestFitRejectsBadShares(t *testing.T) {
	o := FitOptions{Seed: 1, Offsets: 2, Radii: 4, Dirs: 2}
	for _, pp := range [][2]int{{-1, 2}, {2, 2}, {0, 0}} {
		if _, err := SampleGridForce(o, pp[0], pp[1]); err == nil {
			t.Errorf("part %d of %d accepted", pp[0], pp[1])
		}
	}
	if _, err := SampleGridForce(FitOptions{GridN: 12, RCut: 3}, 0, 1); err == nil {
		t.Error("grid 12 accepted for rcut 3")
	}
	s, err := SampleGridForce(o, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FitSamples(o, 2, s); err == nil {
		t.Error("fit accepted one of two shares")
	}
}
