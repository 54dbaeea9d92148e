package fft

import "fmt"

// Real-to-complex transforms exploiting Hermitian symmetry: a real sequence
// of length n has only n/2+1 independent spectral coefficients, so the
// forward transform and all k-space work on real fields (density,
// acceleration components) is halved. For even n the transform runs through
// one complex FFT of length n/2 plus an O(n) untangling pass — the classic
// packed-real algorithm HACC's production pencil FFT uses; odd lengths fall
// back to a full complex transform (the half spectrum is still returned, so
// callers are oblivious).

// HalfLen returns the number of independent spectral coefficients of a real
// transform of length n: n/2+1 (for both parities of n).
func (p *Plan) HalfLen() int { return p.n/2 + 1 }

// half returns the lazily-created length-n/2 plan (even n only).
func (p *Plan) half() *Plan {
	p.halfOnce.Do(func() { p.halfPlan = NewPlan(p.n / 2) })
	return p.halfPlan
}

// halfWork returns the half-length plan's scratch riding on w, created on
// the first real transform that borrows w.
func (p *Plan) halfWork(w *work) *work {
	if w.half == nil {
		w.half = p.half().newWork()
	}
	return w.half
}

// realRow returns w's staging row of the real transforms — n/2 packed pairs
// for even n, the full complex row for odd n — created on the first real
// transform that borrows w, so the scratch of plans that only ever run
// complex transforms (Bluestein sub-plans, half plans) does not carry it.
func (p *Plan) realRow(w *work) []complex128 {
	if w.row == nil {
		size := p.n
		if size%2 == 0 {
			size /= 2
		}
		w.row = make([]complex128, size)
	}
	return w.row
}

// ForwardReal computes the forward DFT of the real sequence src (length n),
// storing the non-negative-frequency half spectrum X[0..n/2] into dst
// (length HalfLen). src is left untouched. The spectral convention matches
// Forward: X[k] = Σ_j src[j]·exp(-2πi jk/n).
func (p *Plan) ForwardReal(dst []complex128, src []float64) { p.ForwardRealBatch(dst, src, 1) }

// InverseReal computes the inverse DFT of the half spectrum src (length
// HalfLen, assumed Hermitian-consistent: the implied negative frequencies
// are conj(src)), storing the real result into dst (length n), scaled by
// 1/n so that InverseReal(ForwardReal(x)) == x. src is left untouched.
func (p *Plan) InverseReal(dst []float64, src []complex128) { p.InverseRealBatch(dst, src, 1) }

// ForwardRealBatch applies ForwardReal to `rows` contiguous real rows of
// length n, writing half-spectrum rows of length HalfLen back to back.
func (p *Plan) ForwardRealBatch(dst []complex128, src []float64, rows int) {
	n, nh := p.n, p.HalfLen()
	if len(src) != rows*n || len(dst) != rows*nh {
		panic(fmt.Sprintf("fft: real batch %d/%d != %d rows × %d/%d",
			len(src), len(dst), rows, n, nh))
	}
	w := p.work.Get().(*work)
	for r := 0; r < rows; r++ {
		p.forwardReal(dst[r*nh:(r+1)*nh], src[r*n:(r+1)*n], w)
	}
	p.work.Put(w)
}

// InverseRealBatch applies InverseReal to `rows` contiguous half-spectrum
// rows, writing real rows of length n back to back.
func (p *Plan) InverseRealBatch(dst []float64, src []complex128, rows int) {
	n, nh := p.n, p.HalfLen()
	if len(dst) != rows*n || len(src) != rows*nh {
		panic(fmt.Sprintf("fft: real batch %d/%d != %d rows × %d/%d",
			len(dst), len(src), rows, n, nh))
	}
	w := p.work.Get().(*work)
	for r := 0; r < rows; r++ {
		p.inverseReal(dst[r*n:(r+1)*n], src[r*nh:(r+1)*nh], w)
	}
	p.work.Put(w)
}

func (p *Plan) forwardReal(dst []complex128, src []float64, w *work) {
	n := p.n
	if n == 1 {
		dst[0] = complex(src[0], 0)
		return
	}
	if n%2 != 0 {
		// Odd length: full complex transform, keep the first n/2+1 modes.
		tmp := p.realRow(w)
		for j, v := range src {
			tmp[j] = complex(v, 0)
		}
		p.transform(tmp, w, false)
		copy(dst, tmp)
		return
	}
	// Even length: pack pairs into a half-length complex sequence
	// z[j] = src[2j] + i·src[2j+1], transform, and untangle with
	//   E[k] = (Z[k] + conj(Z[m-k]))/2        (spectrum of even samples)
	//   O[k] = (Z[k] - conj(Z[m-k]))/(2i)     (spectrum of odd samples)
	//   X[k] = E[k] + ω_n^k·O[k].
	m := n / 2
	z := p.realRow(w)
	for j := range z {
		z[j] = complex(src[2*j], src[2*j+1])
	}
	p.half().transform(z, p.halfWork(w), false)
	// k = 0 and k = m: purely real endpoints.
	dst[0] = complex(real(z[0])+imag(z[0]), 0)
	dst[m] = complex(real(z[0])-imag(z[0]), 0)
	for k := 1; k < m; k++ {
		zk := z[k]
		zc := z[m-k]
		e := complex(real(zk)+real(zc), imag(zk)-imag(zc)) * 0.5
		o := complex(imag(zk)+imag(zc), real(zc)-real(zk)) * 0.5
		dst[k] = e + p.tw[k]*o
	}
}

func (p *Plan) inverseReal(dst []float64, src []complex128, w *work) {
	n := p.n
	if n == 1 {
		dst[0] = real(src[0])
		return
	}
	if n%2 != 0 {
		// Odd length: rebuild the full spectrum by conjugate symmetry.
		tmp := p.realRow(w)
		copy(tmp, src)
		for k := p.HalfLen(); k < n; k++ {
			v := src[n-k]
			tmp[k] = complex(real(v), -imag(v))
		}
		p.transform(tmp, w, true)
		for j := range dst {
			dst[j] = real(tmp[j])
		}
		return
	}
	// Even length: re-tangle into the half-length packed spectrum
	// Z[k] = E[k] + i·O[k] with
	//   E[k] = (X[k] + conj(X[m-k]))/2, O[k] = ω_n^{-k}·(X[k] - conj(X[m-k]))/2,
	// then one half-length inverse FFT unpacks to the interleaved reals.
	m := n / 2
	z := p.realRow(w)
	e0 := (real(src[0]) + real(src[m])) * 0.5
	o0 := (real(src[0]) - real(src[m])) * 0.5
	z[0] = complex(e0, o0)
	for k := 1; k < m; k++ {
		xk := src[k]
		xc := src[m-k]
		e := complex(real(xk)+real(xc), imag(xk)-imag(xc)) * 0.5
		d := complex(real(xk)-real(xc), imag(xk)+imag(xc)) * 0.5
		wk := p.tw[k]
		o := d * complex(real(wk), -imag(wk)) // ω_n^{-k} = conj(ω_n^k)
		z[k] = e + complex(-imag(o), real(o))
	}
	p.half().transform(z, p.halfWork(w), true)
	for j, v := range z {
		dst[2*j] = real(v)
		dst[2*j+1] = imag(v)
	}
}
