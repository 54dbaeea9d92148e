package shortrange

import (
	"fmt"
	"math"
	"math/rand"

	"hacc/internal/fft"
	"hacc/internal/pfft"
	"hacc/internal/spectral"
)

// FitOptions controls the grid-force measurement and polynomial fit.
type FitOptions struct {
	GridN   int     // serial PM grid used for sampling (default 32)
	RCut    float64 // fit range in cells (default 3.0)
	RMin    float64 // smallest sampled radius (default 0.05)
	Offsets int     // random source offsets averaged over (default 6)
	Dirs    int     // random directions per (offset, radius) (default 8)
	Radii   int     // radii sampled in (RMin, RCut+0.5] (default 48)
	Sigma   float64 // filter width (default spectral.DefaultSigma)
	Ns      int     // filter exponent (default spectral.DefaultNs)
	Seed    int64
}

func (o *FitOptions) setDefaults() {
	if o.GridN == 0 {
		o.GridN = 32
	}
	if o.RCut == 0 {
		o.RCut = 3.0
	}
	if o.RMin == 0 {
		o.RMin = 0.05
	}
	if o.Offsets == 0 {
		o.Offsets = 6
	}
	if o.Dirs == 0 {
		o.Dirs = 8
	}
	if o.Radii == 0 {
		o.Radii = 48
	}
	if o.Sigma == 0 {
		o.Sigma = spectral.DefaultSigma
	}
	if o.Ns == 0 {
		o.Ns = spectral.DefaultNs
	}
}

// FitResult is the outcome of the grid-force fit.
type FitResult struct {
	Poly   [6]float64 // f_grid(s) ≈ Σ Poly[k]·s^k on (0, RCut²]
	RCut   float64
	RMSErr float64 // rms of (fit − sample) weighted by s^{3/2} (relative
	// to the Newtonian force at each radius)
	Samples int
}

// FitGridForce measures HACC's filtered PM force for a unit point source by
// randomly sampled particle pairs on a small serial grid, then fits the
// radial profile f_grid(s) with a fifth-order polynomial in s = r² — the
// paper's procedure for constructing the short-range kernel (§II). The PM
// coupling is normalized so the far-field force is exactly 1/r², making the
// coefficients independent of cosmology; the caller scales by GM.
//
// It is the one-part case of the split fit: FitSamples over the samples
// SampleGridForce(o, 0, 1) measures.
func FitGridForce(o FitOptions) (*FitResult, error) {
	samples, err := SampleGridForce(o, 0, 1)
	if err != nil {
		return nil, err
	}
	return FitSamples(o, 1, samples)
}

// SampleGridForce measures the grid-force samples of the source offsets
// off ≡ part (mod parts), the part-th of parts shares of the fit, returning
// them in offset order as (s, f) pairs, Radii·Dirs pairs per offset. Every
// part replays the one random stream keyed on Seed, so it sees the same
// sources and directions as the whole fit, and solves only its own
// offsets; a part that owns no offset builds no solver and returns no
// samples.
func SampleGridForce(o FitOptions, part, parts int) ([]float64, error) {
	o.setDefaults()
	n := o.GridN
	if float64(n) < 4*(o.RCut+1) {
		return nil, fmt.Errorf("shortrange: grid %d too small for rcut %g", n, o.RCut)
	}
	if parts < 1 || part < 0 || part >= parts {
		return nil, fmt.Errorf("shortrange: fit part %d of %d", part, parts)
	}
	out := make([]float64, 0, 2*o.Radii*o.Dirs*ownedOffsets(o.Offsets, part, parts))
	if cap(out) == 0 {
		return out, nil
	}
	rng := rand.New(rand.NewSource(o.Seed + 1))
	var probe *serialPM
	for off := 0; off < o.Offsets; off++ {
		src := [3]float64{
			float64(n)/2 + rng.Float64() - 0.5,
			float64(n)/2 + rng.Float64() - 0.5,
			float64(n)/2 + rng.Float64() - 0.5,
		}
		mine := off%parts == part
		if mine {
			if probe == nil {
				probe = newSerialPM(n, o.Sigma, o.Ns)
			}
			probe.solveWithin(src, o.RCut+0.5)
		}
		for ir := 0; ir < o.Radii; ir++ {
			frac := (float64(ir) + 0.5) / float64(o.Radii)
			r := o.RMin + frac*(o.RCut+0.5-o.RMin)
			for id := 0; id < o.Dirs; id++ {
				dir := randDir(rng)
				if !mine {
					continue
				}
				px := src[0] + r*dir[0]
				py := src[1] + r*dir[1]
				pz := src[2] + r*dir[2]
				a := probe.accelAt(px, py, pz)
				// F_vec = −r_vec·f_grid(s): project onto r_vec.
				rv := [3]float64{r * dir[0], r * dir[1], r * dir[2]}
				s := r * r
				f := -(a[0]*rv[0] + a[1]*rv[1] + a[2]*rv[2]) / s
				out = append(out, s, f)
			}
		}
	}
	return out, nil
}

// ownedOffsets counts the offsets off < offsets with off ≡ part (mod parts).
func ownedOffsets(offsets, part, parts int) int {
	if part >= offsets {
		return 0
	}
	return (offsets-1-part)/parts + 1
}

// FitSamples fits the degree-5 polynomial to the samples of all offsets:
// samples is the parts shares' SampleGridForce outputs concatenated in part
// order (what a rank-ordered gather returns). The samples are put back in
// offset order first, so the fit sums them in the order one part measures
// them and its coefficients do not depend on parts.
func FitSamples(o FitOptions, parts int, samples []float64) (*FitResult, error) {
	o.setDefaults()
	per := 2 * o.Radii * o.Dirs
	if parts < 1 {
		return nil, fmt.Errorf("shortrange: fit over %d parts", parts)
	}
	if len(samples) != per*o.Offsets {
		return nil, fmt.Errorf("shortrange: %d sample values, want %d (%d offsets × %d radii × %d directions × 2)",
			len(samples), per*o.Offsets, o.Offsets, o.Radii, o.Dirs)
	}
	// Part q's share starts after the shares of parts < q.
	start := make([]int, parts)
	for q := 1; q < parts; q++ {
		start[q] = start[q-1] + per*ownedOffsets(o.Offsets, q-1, parts)
	}
	ss := make([]float64, 0, len(samples)/2)
	fs := make([]float64, 0, len(samples)/2)
	for off := 0; off < o.Offsets; off++ {
		b := start[off%parts] + per*(off/parts)
		for i := b; i < b+per; i += 2 {
			ss = append(ss, samples[i])
			fs = append(fs, samples[i+1])
		}
	}
	coef, err := polyFit5(ss, fs, o.RCut*o.RCut)
	if err != nil {
		return nil, err
	}
	res := &FitResult{RCut: o.RCut, Samples: len(ss)}
	copy(res.Poly[:], coef)
	// Residual relative to the Newtonian force scale at each radius.
	var acc float64
	for i, s := range ss {
		fit := coef[0] + s*(coef[1]+s*(coef[2]+s*(coef[3]+s*(coef[4]+s*coef[5]))))
		rel := (fit - fs[i]) * s * math.Sqrt(s) // ÷ s^{-3/2}
		acc += rel * rel
	}
	res.RMSErr = math.Sqrt(acc / float64(len(ss)))
	return res, nil
}

func randDir(rng *rand.Rand) [3]float64 {
	for {
		x, y, z := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		s := math.Sqrt(x*x + y*y + z*z)
		if s > 1e-6 {
			return [3]float64{x / s, y / s, z / s}
		}
	}
}

// polyFit5 least-squares fits f(s) = Σ c_k s^k, k=0..5. The fit is done in
// the scaled variable u = s/scale for conditioning and mapped back.
func polyFit5(ss, fs []float64, scale float64) ([]float64, error) {
	const m = 6
	if len(ss) < m {
		return nil, fmt.Errorf("shortrange: %d samples insufficient for degree-5 fit", len(ss))
	}
	var ata [m][m]float64
	var atb [m]float64
	for i, s := range ss {
		u := s / scale
		var row [m]float64
		row[0] = 1
		for k := 1; k < m; k++ {
			row[k] = row[k-1] * u
		}
		for a := 0; a < m; a++ {
			for b := 0; b < m; b++ {
				ata[a][b] += row[a] * row[b]
			}
			atb[a] += row[a] * fs[i]
		}
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < m; col++ {
		p := col
		for r := col + 1; r < m; r++ {
			if math.Abs(ata[r][col]) > math.Abs(ata[p][col]) {
				p = r
			}
		}
		if math.Abs(ata[p][col]) < 1e-30 {
			return nil, fmt.Errorf("shortrange: singular normal equations")
		}
		ata[col], ata[p] = ata[p], ata[col]
		atb[col], atb[p] = atb[p], atb[col]
		inv := 1 / ata[col][col]
		for r := col + 1; r < m; r++ {
			f := ata[r][col] * inv
			for c := col; c < m; c++ {
				ata[r][c] -= f * ata[col][c]
			}
			atb[r] -= f * atb[col]
		}
	}
	var b [m]float64
	for r := m - 1; r >= 0; r-- {
		v := atb[r]
		for c := r + 1; c < m; c++ {
			v -= ata[r][c] * b[c]
		}
		b[r] = v / ata[r][r]
	}
	// Map back from u = s/scale: c_k = b_k / scale^k.
	out := make([]float64, m)
	pw := 1.0
	for k := 0; k < m; k++ {
		out[k] = b[k] / pw
		pw *= scale
	}
	return out, nil
}

// serialPM is a single-rank spectral PM solver used only for kernel
// construction and error analysis (it mirrors spectral.Poisson without the
// distributed machinery). Its k-space tables do not depend on the source,
// so one solver serves every source position of a fit.
type serialPM struct {
	n     int
	plan  *fft.Plan3
	green []float64 // per mode: 4π·Filter/Influence6 (mode 0 unused)
	grad  []float64 // per 1-D mode index: GradSL4
	rho   []complex128
	comp  []complex128
	win   [3]fft.Span  // the cells the last solve stored, per axis
	acc   [3][]float64 // acceleration on win, index (j0·len1 + j1)·len2 + j2 (grown on demand)
}

func newSerialPM(n int, sigma float64, ns int) *serialPM {
	p := &serialPM{
		n:     n,
		plan:  fft.NewPlan3(n, n, n),
		green: make([]float64, n*n*n),
		grad:  make([]float64, n),
		rho:   make([]complex128, n*n*n),
		comp:  make([]complex128, n*n*n),
	}
	// Influence6 sums Lap6 over the axes in x, y, z order, so the per-axis
	// table entries summed in that order give its bits; the filter depends
	// on |k| alone.
	lt := make([]float64, n)
	for m := 0; m < n; m++ {
		k := spectral.KMode(m, n)
		p.grad[m] = spectral.GradSL4(k)
		lt[m] = spectral.Lap6(k)
	}
	all := pfft.Box{Hi: [3]int{n, n, n}}
	filter := spectral.NewRadialTable(all.Hi, all, func(k2 float64) float64 {
		return spectral.Filter(math.Sqrt(k2), sigma, ns)
	})
	// Coupling 4π makes the pair force exactly r̂/r² in the far field.
	const coupling = 4 * math.Pi
	for mx := 0; mx < n; mx++ {
		for my := 0; my < n; my++ {
			for mz := 0; mz < n; mz++ {
				if mx == 0 && my == 0 && mz == 0 {
					continue
				}
				g := 1 / (lt[mx] + lt[my] + lt[mz])
				f := filter.At(mx, my, mz)
				p.green[(mx*n+my)*n+mz] = coupling * f * g
			}
		}
	}
	return p
}

// solve computes the acceleration field of a unit CIC-deposited point mass
// with far-field normalization 1/r², on every cell.
func (p *serialPM) solve(src [3]float64) { p.solveWithin(src, math.Inf(1)) }

// solveWithin is solve storing the acceleration only on the window of
// cells accelAt reads for a probe within reach of src: a probe at x reads
// cells ⌊x⌋ and ⌊x⌋+1, so each axis needs ⌊c−reach⌋ … ⌊c+reach⌋+1, and the
// window adds a cell on each side for the rounding of src + r·dir. The
// forward transform starts from the 2×2 z rows the CIC source fills and
// the inverses finish only that window; both give solve's bits there.
func (p *serialPM) solveWithin(src [3]float64, reach float64) {
	n := p.n
	rho := p.rho
	clear(rho)
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
	p.plan.ForwardSparse(rho, fft.Span{Lo: ix, Len: 2}, fft.Span{Lo: iy, Len: 2})
	psi := rho
	psi[0] = 0
	for i := 1; i < len(psi); i++ {
		psi[i] *= complex(p.green[i], 0)
	}
	for d := range p.win {
		p.win[d] = window(src[d], reach, n)
	}
	w0, w1, w2 := p.win[0], p.win[1], p.win[2]
	comp := p.comp
	for d := 0; d < 3; d++ {
		for mx := 0; mx < n; mx++ {
			for my := 0; my < n; my++ {
				for mz := 0; mz < n; mz++ {
					i := (mx*n+my)*n + mz
					var dk float64
					switch d {
					case 0:
						dk = p.grad[mx]
					case 1:
						dk = p.grad[my]
					default:
						dk = p.grad[mz]
					}
					v := psi[i]
					comp[i] = complex(imag(v)*dk, -real(v)*dk)
				}
			}
		}
		p.plan.InverseBox(comp, w0, w1, w2)
		acc := p.acc[d][:0]
		for j0 := 0; j0 < w0.Len; j0++ {
			g0 := mod(w0.Lo+j0, n)
			for j1 := 0; j1 < w1.Len; j1++ {
				g1 := mod(w1.Lo+j1, n)
				for j2 := 0; j2 < w2.Len; j2++ {
					acc = append(acc, real(comp[(g0*n+g1)*n+mod(w2.Lo+j2, n)]))
				}
			}
		}
		p.acc[d] = acc
	}
}

// window returns the cells of an n-cell periodic axis that solveWithin
// stores for a source at c: the whole axis when they would cover it.
func window(c, reach float64, n int) fft.Span {
	if reach >= float64(n) {
		return fft.Span{Lo: 0, Len: n}
	}
	lo := int(math.Floor(c-reach)) - 1
	hi := int(math.Floor(c+reach)) + 2 // exclusive
	if hi-lo >= n {
		return fft.Span{Lo: 0, Len: n}
	}
	return fft.Span{Lo: mod(lo, n), Len: hi - lo}
}

// accelAt CIC-interpolates the acceleration at a position. It panics on a
// cell outside the last solve's window.
func (p *serialPM) accelAt(x, y, z float64) [3]float64 {
	ix, iy, iz := int(math.Floor(x)), int(math.Floor(y)), int(math.Floor(z))
	fx, fy, fz := x-float64(ix), y-float64(iy), z-float64(iz)
	l1, l2 := p.win[1].Len, p.win[2].Len
	var out [3]float64
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
				i := (p.local(0, ix+dx)*l1+p.local(1, iy+dy))*l2 + p.local(2, iz+dz)
				w := wx * wy * wz
				for d := 0; d < 3; d++ {
					out[d] += p.acc[d][i] * w
				}
			}
		}
	}
	return out
}

// local maps cell i of an axis to its index in the solved window.
func (p *serialPM) local(axis, i int) int {
	w := p.win[axis]
	j := mod(i-w.Lo, p.n)
	if j >= w.Len {
		panic(fmt.Sprintf("shortrange: accelAt reads cell %d of axis %d outside the solved window %+v", mod(i, p.n), axis, w))
	}
	return j
}

func mod(x, n int) int { return ((x % n) + n) % n }
