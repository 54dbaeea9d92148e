package fft

import "math"

// The recursive mixed-radix kernel the stage tables replaced, kept verbatim
// as the bit-exactness oracle: the production plan must reproduce these
// transforms bit for bit (see TestPlanMatchesReference). The oracle shares
// only the plan's factorization, its global twiddle table and the Bluestein
// chirp tables; every transform it runs, including the power-of-two
// convolutions inside Bluestein, goes through rec.

func (p *Plan) recForward(data []complex128) {
	buf := make([]complex128, p.n+p.maxF)
	p.rec(buf[:p.n], data, p.n, 1, 1, p.factors, buf[p.n:])
	copy(data, buf[:p.n])
}

func (p *Plan) recInverse(data []complex128) {
	for i, v := range data {
		data[i] = complex(real(v), -imag(v))
	}
	p.recForward(data)
	inv := 1 / float64(p.n)
	for i, v := range data {
		data[i] = complex(real(v)*inv, -imag(v)*inv)
	}
}

// rec computes the DFT of the strided sequence src[0], src[s], … (length n)
// into the contiguous dst. tmul relates this level's twiddles to the global
// table: ω_n^k = tw[(k·tmul) mod N]. tmp provides maxF scratch entries.
func (p *Plan) rec(dst, src []complex128, n, s, tmul int, factors []int, tmp []complex128) {
	if n == 1 {
		dst[0] = src[0]
		return
	}
	if len(factors) == 0 {
		// Large-prime cofactor: gather the strided input and run Bluestein.
		for j := 0; j < n; j++ {
			dst[j] = src[j*s]
		}
		p.blue.recTransform(dst)
		return
	}
	f := factors[0]
	m := n / f
	for j := 0; j < f; j++ {
		p.rec(dst[j*m:(j+1)*m], src[j*s:], m, s*f, tmul*f, factors[1:], tmp)
	}
	N := p.n
	tw := p.tw
	switch f {
	case 2:
		for k1 := 0; k1 < m; k1++ {
			t0 := dst[k1]
			t1 := dst[m+k1] * tw[(k1*tmul)%N]
			dst[k1] = t0 + t1
			dst[m+k1] = t0 - t1
		}
	case 4:
		for k1 := 0; k1 < m; k1++ {
			w1 := tw[(k1*tmul)%N]
			w2 := tw[(2*k1*tmul)%N]
			w3 := tw[(3*k1*tmul)%N]
			t0 := dst[k1]
			t1 := dst[m+k1] * w1
			t2 := dst[2*m+k1] * w2
			t3 := dst[3*m+k1] * w3
			a := t0 + t2
			b := t0 - t2
			cc := t1 + t3
			d := t1 - t3
			// -i*d and +i*d spelled out.
			id := complex(imag(d), -real(d))
			dst[k1] = a + cc
			dst[m+k1] = b + id
			dst[2*m+k1] = a - cc
			dst[3*m+k1] = b - id
		}
	case 3:
		// ω_3 = -1/2 - i√3/2
		const half = 0.5
		sq := math.Sqrt(3) / 2
		for k1 := 0; k1 < m; k1++ {
			t0 := dst[k1]
			t1 := dst[m+k1] * tw[(k1*tmul)%N]
			t2 := dst[2*m+k1] * tw[(2*k1*tmul)%N]
			sum := t1 + t2
			diff := t1 - t2
			// X1 = t0 + ω t1 + ω² t2, X2 = t0 + ω² t1 + ω t2
			re := complex(-half*real(sum), -half*imag(sum))
			im := complex(sq*imag(diff), -sq*real(diff))
			dst[k1] = t0 + sum
			dst[m+k1] = t0 + re + im
			dst[2*m+k1] = t0 + re - im
		}
	default:
		for k1 := 0; k1 < m; k1++ {
			for j := 0; j < f; j++ {
				tmp[j] = dst[j*m+k1] * tw[(j*k1*tmul)%N]
			}
			wstep := m * tmul // ω_f = ω_n^{m}
			for k2 := 0; k2 < f; k2++ {
				sum := tmp[0]
				for j := 1; j < f; j++ {
					sum += tmp[j] * tw[(j*k2*wstep)%N]
				}
				dst[k2*m+k1] = sum
			}
		}
	}
}

// recTransform is the pre-stage-table bluestein.transform.
func (b *bluestein) recTransform(data []complex128) {
	a := make([]complex128, b.m)
	for j := 0; j < b.n; j++ {
		a[j] = data[j] * b.w[j]
	}
	b.sub.recForward(a)
	for j := range a {
		a[j] *= b.bHat[j]
	}
	b.sub.recInverse(a)
	for k := 0; k < b.n; k++ {
		data[k] = a[k] * b.w[k]
	}
}

// recForwardReal is the pre-stage-table ForwardReal.
func (p *Plan) recForwardReal(dst []complex128, src []float64) {
	n := p.n
	if n == 1 {
		dst[0] = complex(src[0], 0)
		return
	}
	if n%2 != 0 {
		tmp := make([]complex128, n)
		for j, v := range src {
			tmp[j] = complex(v, 0)
		}
		p.recForward(tmp)
		copy(dst, tmp[:p.HalfLen()])
		return
	}
	m := n / 2
	z := make([]complex128, m)
	for j := 0; j < m; j++ {
		z[j] = complex(src[2*j], src[2*j+1])
	}
	p.half().recForward(z)
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

// recInverseReal is the pre-stage-table InverseReal.
func (p *Plan) recInverseReal(dst []float64, src []complex128) {
	n := p.n
	if n == 1 {
		dst[0] = real(src[0])
		return
	}
	if n%2 != 0 {
		tmp := make([]complex128, n)
		copy(tmp, src)
		for k := p.HalfLen(); k < n; k++ {
			v := src[n-k]
			tmp[k] = complex(real(v), -imag(v))
		}
		p.recInverse(tmp)
		for j := 0; j < n; j++ {
			dst[j] = real(tmp[j])
		}
		return
	}
	m := n / 2
	z := make([]complex128, m)
	e0 := (real(src[0]) + real(src[m])) * 0.5
	o0 := (real(src[0]) - real(src[m])) * 0.5
	z[0] = complex(e0, o0)
	for k := 1; k < m; k++ {
		xk := src[k]
		xc := src[m-k]
		e := complex(real(xk)+real(xc), imag(xk)-imag(xc)) * 0.5
		d := complex(real(xk)-real(xc), imag(xk)+imag(xc)) * 0.5
		w := p.tw[k]
		o := d * complex(real(w), -imag(w))
		z[k] = e + complex(-imag(o), real(o))
	}
	p.half().recInverse(z)
	for j := 0; j < m; j++ {
		dst[2*j] = real(z[j])
		dst[2*j+1] = imag(z[j])
	}
}
