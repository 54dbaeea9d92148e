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
// the per-source form, over the fit's default grid and offset draws.
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
				for i, w := range want[d] {
					if got := probe.acc[d][i]; math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("seed %d offset %d axis %d cell %d: %v want %v", seed, off, d, i, got, w)
					}
				}
			}
		}
	}
}
