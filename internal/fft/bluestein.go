package fft

import "math"

// bluestein implements the chirp-z transform for an arbitrary length n via a
// zero-padded circular convolution of length m = nextpow2(2n-1). It handles
// the large-prime cofactors the mixed-radix stages cannot split.
type bluestein struct {
	n    int
	m    int
	w    []complex128 // chirp: w[j] = exp(-iπ j²/n), j² reduced mod 2n
	bHat []complex128 // FFT of the conjugate chirp, padded circularly
	sub  *Plan        // power-of-two plan of length m
}

func newBluestein(n int) *bluestein {
	m := 1
	for m < 2*n-1 {
		m *= 2
	}
	b := &bluestein{n: n, m: m}
	b.w = make([]complex128, n)
	for j := 0; j < n; j++ {
		// j² mod 2n keeps the argument small for large j.
		jj := (j * j) % (2 * n)
		s, c := math.Sincos(-math.Pi * float64(jj) / float64(n))
		b.w[j] = complex(c, s)
	}
	bVec := make([]complex128, m)
	for j := 0; j < n; j++ {
		cj := complex(real(b.w[j]), -imag(b.w[j]))
		bVec[j] = cj
		if j > 0 {
			bVec[m-j] = cj
		}
	}
	b.sub = NewPlan(m)
	b.sub.Forward(bVec)
	b.bHat = bVec
	return b
}

// transform computes the in-place DFT of data (length n) using the owning
// plan's scratch: w.conv holds the convolution, w.sub serves the sub-plan.
func (b *bluestein) transform(data []complex128, w *work) {
	a := w.conv
	for j := 0; j < b.n; j++ {
		a[j] = data[j] * b.w[j]
	}
	for j := b.n; j < b.m; j++ {
		a[j] = 0
	}
	b.sub.transform(a, w.sub, false)
	for j := range a {
		a[j] *= b.bHat[j]
	}
	b.sub.transform(a, w.sub, true)
	for k := 0; k < b.n; k++ {
		data[k] = a[k] * b.w[k]
	}
}
