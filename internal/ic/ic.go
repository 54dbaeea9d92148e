package ic

import (
	"fmt"
	"math"

	"hacc/internal/cosmology"
	"hacc/internal/domain"
	"hacc/internal/grid"
	"hacc/internal/mpi"
	"hacc/internal/pfft"
	"hacc/internal/spectral"
)

// Options configures the realization.
type Options struct {
	Np     int     // particles per dimension (Np³ total)
	BoxMpc float64 // box side in Mpc/h
	AInit  float64 // starting scale factor
	Seed   uint64
	Fixed  bool // fixed-amplitude ICs (phase-only randomness), a
	// variance-suppression technique for precision P(k) work
}

// Validate reports configuration errors.
func (o Options) Validate() error {
	if o.Np < 2 {
		return fmt.Errorf("ic: need ≥2 particles per dim, got %d", o.Np)
	}
	if o.BoxMpc <= 0 {
		return fmt.Errorf("ic: box size must be positive, got %g", o.BoxMpc)
	}
	if o.AInit <= 0 || o.AInit > 0.5 {
		return fmt.Errorf("ic: AInit %g outside (0, 0.5]", o.AInit)
	}
	return nil
}

// Generate fills dom.Active with the rank's share of a Zel'dovich
// realization on the decomposition's grid. Collective over comm.
//
// The density modes δ̂ₖ — an amplitude and a modeGaussian draw each — are
// computed once on this rank's half-spectrum z-pencil (δ is real, so its
// kx ≥ 0 half determines it), the amplitude √P(k) once per sign-folded |k|;
// each displacement axis then only scales them by i·k_d/k², runs the c2r
// inverse, moves the result to the block layout and fills its ghosts,
// through one redistribution plan, one ghost exchanger and one field shared
// by the three axes.
func Generate(c *mpi.Comm, dec *grid.Decomp, lp *cosmology.LinearPower, o Options, dom *domain.Domain) error {
	if err := o.Validate(); err != nil {
		return err
	}
	n := dec.N
	if n[0] != n[1] || n[1] != n[2] {
		return fmt.Errorf("ic: non-cubic grids not supported for IC generation: %v", n)
	}
	ng := n[0]
	pen := pfft.NewAuto(c, n)
	vol := o.BoxMpc * o.BoxMpc * o.BoxMpc
	nc3 := float64(ng) * float64(ng) * float64(ng)
	// <|δ̂_k|²> = P(k)·Nc⁶/V for the unnormalized forward FFT convention.
	ampNorm := nc3 / math.Sqrt(vol)

	growth := lp.Gfac
	d0 := growth.D(o.AInit)
	f0 := growth.F(o.AInit)
	pfac := float32(o.AInit * o.AInit * lp.Params().E(o.AInit) * f0 * d0)

	// Axis wavenumbers; the grid is cubic, so one table serves all three.
	kTab := make([]float64, ng)
	for m := range kTab {
		kTab[m] = spectral.KMode(m, ng)
	}
	// The amplitude depends on |k| alone: one LinearPower.P per sign-folded
	// mode this rank holds.
	ampTab := spectral.NewRadialTable(n, pen.LocalZR(), func(k2 float64) float64 {
		kPhys := math.Sqrt(k2) * float64(ng) / o.BoxMpc
		return math.Sqrt(lp.P(kPhys)) * ampNorm
	})
	delta := make([]complex128, pen.LocalZR().Count())
	pen.ForEachKR(func(mx, my, mz, idx int) {
		if mx == 0 && my == 0 && mz == 0 {
			return
		}
		amp := ampTab.At(mx, my, mz)
		re, im := modeGaussian(o.Seed, mx, my, mz, ng, o.Fixed)
		delta[idx] = complex(amp*re, amp*im)
	})

	// Lay down the lattice sites owned by this rank. The lattice sits on
	// grid nodes: when Np == Ng the displacement is read off exactly (no
	// CIC smoothing of the IC spectrum).
	step := float64(ng) / float64(o.Np)
	box := dec.Box(c.Rank())
	dom.Active.Reset()
	var qx, qy, qz []float32
	var ids []uint64
	for i := 0; i < o.Np; i++ {
		x := float64(i) * step
		if int(x) < box.Lo[0] || int(x) >= box.Hi[0] {
			continue
		}
		for j := 0; j < o.Np; j++ {
			y := float64(j) * step
			if int(y) < box.Lo[1] || int(y) >= box.Hi[1] {
				continue
			}
			for k := 0; k < o.Np; k++ {
				z := float64(k) * step
				if int(z) < box.Lo[2] || int(z) >= box.Hi[2] {
					continue
				}
				qx = append(qx, float32(x))
				qy = append(qy, float32(y))
				qz = append(qz, float32(z))
				ids = append(ids, (uint64(i)*uint64(o.Np)+uint64(j))*uint64(o.Np)+uint64(k))
			}
		}
	}
	np := len(qx)

	// Displacement fields, one axis at a time: Ψ_k = i·k_d/k²·δ_k
	// (continuum gradient for IC fidelity), inverse-transformed, moved to
	// the block layout with its ghost halo in one plan (the halo layout's
	// ghost slots are data) and read off at the lattice sites.
	//
	// On axis d's Nyquist plane (2·m_d = ng) the mode −k has the same k_d
	// as k, so there i·k_d/k²·δ̂ is anti-Hermitian: its inverse transform is
	// purely imaginary. The real part of a full complex inverse drops it; a
	// c2r inverse assumes Hermitian input and would keep it, so that plane
	// is zeroed, as is the DC mode (mean displacement zero).
	spec := make([]complex128, len(delta))
	vals := make([]float64, pen.LocalX().Count())
	disp := grid.NewField(n, box, 2)
	toBlock := pfft.NewRedistributor[float64](c, pen.LayoutX(), dec.Layout().Padded(disp.Ghost).Halo())
	var displ [3][]float32
	for d := 0; d < 3; d++ {
		pen.ForEachKR(func(mx, my, mz, idx int) {
			m := [3]int{mx, my, mz}
			if 2*m[d] == ng || mx == 0 && my == 0 && mz == 0 {
				spec[idx] = 0
				return
			}
			kx, ky, kz := kTab[mx], kTab[my], kTab[mz]
			w := kTab[m[d]] / (kx*kx + ky*ky + kz*kz)
			dk := delta[idx]
			spec[idx] = complex(-imag(dk)*w, real(dk)*w)
		})
		pen.InverseReal(spec, vals)
		toBlock.Run(vals, disp.Data)
		displ[d] = make([]float32, np)
		grid.InterpCIC(disp, qx, qy, qz, displ[d], 1)
	}
	dom.Active.Grow(np)
	for i := 0; i < np; i++ {
		x := qx[i] + float32(d0)*displ[0][i]
		y := qy[i] + float32(d0)*displ[1][i]
		z := qz[i] + float32(d0)*displ[2][i]
		dom.Active.Append(x, y, z,
			pfac*displ[0][i], pfac*displ[1][i], pfac*displ[2][i], ids[i])
	}
	dom.Migrate()
	return nil
}

// modeGaussian returns the deterministic Gaussian pair for mode (mx,my,mz),
// respecting the Hermitian symmetry δ(−k) = conj(δ(k)) by hashing the
// canonical representative of each conjugate pair. Self-conjugate modes get
// a real amplitude with matching total variance. With fixed=true the
// modulus is pinned to its rms and only the phase is random.
func modeGaussian(seed uint64, mx, my, mz, n int, fixed bool) (re, im float64) {
	cx, cy, cz := (n-mx)%n, (n-my)%n, (n-mz)%n
	conjugated := false
	hx, hy, hz := mx, my, mz
	if less3(cx, cy, cz, mx, my, mz) {
		hx, hy, hz = cx, cy, cz
		conjugated = true
	}
	self := cx == mx && cy == my && cz == mz
	h := splitmix(seed ^ mixCoords(hx, hy, hz))
	u1 := toUniform(h)
	h = splitmix(h)
	u2 := toUniform(h)
	if self {
		if fixed {
			// Unit modulus, random sign.
			if u2 > 0.5 {
				return 1, 0
			}
			return -1, 0
		}
		// Real Gaussian with variance equal to the complex modes' total.
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2), 0
	}
	r := math.Sqrt(-math.Log(u1)) // Rayleigh: |δ| with Re,Im each N(0,½)
	if fixed {
		r = 1 // pin the modulus to its rms
	}
	phase := 2 * math.Pi * u2
	re = r * math.Cos(phase)
	im = r * math.Sin(phase)
	if conjugated {
		im = -im
	}
	return re, im
}

func less3(ax, ay, az, bx, by, bz int) bool {
	if ax != bx {
		return ax < bx
	}
	if ay != by {
		return ay < by
	}
	return az < bz
}

func mixCoords(x, y, z int) uint64 {
	return uint64(x)*0x9e3779b97f4a7c15 ^ uint64(y)*0xc2b2ae3d27d4eb4f ^ uint64(z)*0x165667b19e3779f9
}

// splitmix is the splitmix64 mixing function.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// toUniform maps a hash to (0,1].
func toUniform(h uint64) float64 {
	return (float64(h>>11) + 1) / (1 << 53)
}
