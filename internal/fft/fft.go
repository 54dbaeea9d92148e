package fft

import (
	"fmt"
	"math"
	"sync"
)

// maxSmallFactor is the largest prime handled by the generic O(f²) butterfly;
// larger factors fall through to Bluestein.
const maxSmallFactor = 31

// Plan holds the factorization of n and everything a transform needs that
// does not depend on the data: the digit-reversal gather permutation and one
// twiddle table per factor (see stage).
type Plan struct {
	n       int
	factors []int        // small factors, outermost first; product*blue.n == n
	tw      []complex128 // tw[k] = exp(-2πi k/n)
	blue    *bluestein   // non-nil when a cofactor > maxSmallFactor remains
	maxF    int          // largest small factor (scratch sizing)

	perm   []int   // stage input: buf[i] = data[perm[i]]
	stages []stage // innermost factor first
	work   sync.Pool

	halfOnce sync.Once
	halfPlan *Plan // length-n/2 plan backing the real transforms (even n)
}

// stage is one radix-f pass of the decimation-in-time transform: it combines
// f adjacent sub-transforms of length m into one of length f·m, over every
// block of f·m elements. tw holds the inter-stage twiddles ω^{j·k1} of the
// f·m-point transform as rows of m entries (row j at tw[(j-1)·m:] for the
// specialized radices 2, 3 and 4, whose j = 0 input takes no multiply; row j
// at tw[j·m:] for the generic butterfly, whose j = 0 input does). wf is the
// generic butterfly's f×f matrix ω_f^{j·k2}, row k2.
type stage struct {
	f, m int
	tw   []complex128
	wf   []complex128
}

// work is the scratch of one transform in flight.
type work struct {
	buf  []complex128 // n stage entries + maxF generic-butterfly temporaries
	row  []complex128 // staging row of the real transforms (lazy, see realRow)
	conv []complex128 // Bluestein convolution buffer
	sub  *work        // scratch of the Bluestein sub-plan
	half *work        // scratch of the half-length plan (real transforms)
}

// NewPlan creates a plan for transforms of length n.
func NewPlan(n int) *Plan {
	if n <= 0 {
		panic(fmt.Sprintf("fft: invalid length %d", n))
	}
	p := &Plan{n: n}
	// Factor n: prefer radix 4, then 2, 3, 5, 7, then remaining primes.
	rem := n
	for rem%4 == 0 {
		p.factors = append(p.factors, 4)
		rem /= 4
	}
	for _, f := range []int{2, 3, 5, 7} {
		for rem%f == 0 {
			p.factors = append(p.factors, f)
			rem /= f
		}
	}
	for f := 11; f*f <= rem && f <= maxSmallFactor; f += 2 {
		for rem%f == 0 {
			p.factors = append(p.factors, f)
			rem /= f
		}
	}
	if rem > 1 && rem <= maxSmallFactor {
		p.factors = append(p.factors, rem)
		rem = 1
	}
	if rem > 1 {
		// The remaining cofactor (a large prime or product of large primes)
		// is transformed with Bluestein's algorithm before the first stage.
		p.blue = newBluestein(rem)
	}
	p.maxF = 1
	for _, f := range p.factors {
		if f > p.maxF {
			p.maxF = f
		}
	}
	p.tw = make([]complex128, n)
	for k := 0; k < n; k++ {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.tw[k] = complex(c, s)
	}
	p.perm = make([]int, n)
	p.gatherOrder(0, 0, 1, p.factors)
	// Stage tables, copied out of tw at the indices the recursive
	// formulation reduces mod n at run time: the level that splits a
	// length-f·m transform sees ω_{f·m}^k = tw[k·tmul] with tmul = n/(f·m).
	p.stages = make([]stage, len(p.factors))
	tmul := 1
	for l, f := range p.factors {
		m := n / tmul / f
		st := stage{f: f, m: m}
		j0 := 1
		if f != 2 && f != 3 && f != 4 {
			j0 = 0
			st.wf = make([]complex128, f*f)
			for k2 := 0; k2 < f; k2++ {
				for j := 0; j < f; j++ {
					st.wf[k2*f+j] = p.tw[(j*k2*m*tmul)%n]
				}
			}
		}
		st.tw = make([]complex128, 0, (f-j0)*m)
		for j := j0; j < f; j++ {
			for k1 := 0; k1 < m; k1++ {
				st.tw = append(st.tw, p.tw[(j*k1*tmul)%n])
			}
		}
		p.stages[len(p.factors)-1-l] = st
		tmul *= f
	}
	p.work.New = func() any { return p.newWork() }
	return p
}

// gatherOrder fills perm for the sub-transform that reads data[src],
// data[src+s], … and leaves its result at buf[dst:]: splitting by the first
// factor f sends input residue class j (mod f) to the j-th sub-block.
func (p *Plan) gatherOrder(dst, src, s int, factors []int) {
	if len(factors) == 0 {
		// One element, or a Bluestein block in natural order.
		for j := 0; j < p.n/s; j++ {
			p.perm[dst+j] = src + j*s
		}
		return
	}
	f := factors[0]
	m := p.n / s / f
	for j := 0; j < f; j++ {
		p.gatherOrder(dst+j*m, src+j*s, s*f, factors[1:])
	}
}

func (p *Plan) newWork() *work {
	w := &work{buf: make([]complex128, p.n+p.maxF)}
	if p.blue != nil {
		w.conv = make([]complex128, p.blue.m)
		w.sub = p.blue.sub.newWork()
	}
	return w
}

// N returns the transform length.
func (p *Plan) N() int { return p.n }

// Forward computes the in-place forward DFT: X[k] = Σ_j x[j]·exp(-2πi jk/n).
func (p *Plan) Forward(data []complex128) { p.batch(data, 1, false) }

// Inverse computes the in-place inverse DFT, scaled by 1/n, so that
// Inverse(Forward(x)) == x.
func (p *Plan) Inverse(data []complex128) { p.batch(data, 1, true) }

// ForwardBatch applies the forward transform to rows contiguous rows of
// length n stored back to back in data.
func (p *Plan) ForwardBatch(data []complex128, rows int) { p.batch(data, rows, false) }

// InverseBatch applies the inverse transform to contiguous rows.
func (p *Plan) InverseBatch(data []complex128, rows int) { p.batch(data, rows, true) }

func (p *Plan) batch(data []complex128, rows int, inverse bool) {
	n := p.n
	if len(data) != rows*n {
		panic(fmt.Sprintf("fft: data length %d != %d rows × plan length %d", len(data), rows, n))
	}
	w := p.work.Get().(*work)
	for r := 0; r < rows; r++ {
		p.transform(data[r*n:(r+1)*n], w, inverse)
	}
	p.work.Put(w)
}

// transform runs one in-place DFT of row: a gather into w.buf in
// digit-reversed order, then the stages bottom-up in w.buf, the last one
// storing straight back into row. A radix-4 or radix-2 first stage (the
// power-of-two lengths) does its own gathering. The inverse is
// conj∘forward∘conj scaled by 1/n; the input conjugation rides on the gather
// and the output conjugation and scaling on the last stage's store, both
// exact.
func (p *Plan) transform(row []complex128, w *work, inverse bool) {
	n := p.n
	buf := w.buf[:n]
	stages := p.stages
	switch {
	case len(stages) > 1 && stages[0].m == 1 && stages[0].f == 4:
		first4(buf, row, p.perm, stages[0].tw, inverse)
		stages = stages[1:]
	case len(stages) > 1 && stages[0].m == 1 && stages[0].f == 2:
		first2(buf, row, p.perm, stages[0].tw, inverse)
		stages = stages[1:]
	case inverse:
		for i, j := range p.perm {
			buf[i] = conj(row[j])
		}
	default:
		for i, j := range p.perm {
			buf[i] = row[j]
		}
	}
	if p.blue != nil {
		for b := 0; b < n; b += p.blue.n {
			p.blue.transform(buf[b:b+p.blue.n], w)
		}
	}
	inv := 0.0
	if inverse {
		inv = 1 / float64(n)
	}
	last := len(stages) - 1
	if last < 0 {
		// Length 1 or a bare Bluestein length: nothing left to combine.
		for i, v := range buf {
			row[i] = scaled(v, inv)
		}
		return
	}
	tmp := w.buf[n:]
	for i := range stages[:last] {
		stages[i].run(buf, buf, tmp, 0)
	}
	stages[last].run(row, buf, tmp, inv)
}

func conj(v complex128) complex128 { return complex(real(v), -imag(v)) }

// conjScaled is the inverse transform's final store: conj(v)·inv.
func conjScaled(v complex128, inv float64) complex128 {
	return complex(real(v)*inv, -imag(v)*inv)
}

// scaled is the store of a stage output: as is for inv == 0, else the
// inverse transform's conj(v)·inv.
func scaled(v complex128, inv float64) complex128 {
	if inv == 0 {
		return v
	}
	return conjScaled(v, inv)
}

// run applies the stage to every block of f·m elements of src, storing into
// the same positions of dst; dst and src are either the same slice or
// disjoint. Each butterfly reads its f inputs before storing any output, so
// running in place is safe. A non-zero inv turns every store into
// conj(v)·inv (the last stage of an inverse transform).
//
// The butterflies are the recursive kernel's, expression for expression:
// per level the same operands meet the same twiddles, and levels only
// consume the finished output of the level below, so the bottom-up schedule
// rounds exactly as the recursion did. That includes the multiplies by the
// unit twiddle tw[0] = (1, -0): dropping them would flip signs of zeros.
func (st *stage) run(dst, src, tmp []complex128, inv float64) {
	switch st.f {
	case 2:
		pass2(dst, src, st.tw, st.m, inv)
	case 3:
		pass3(dst, src, st.tw, st.m, inv)
	case 4:
		pass4(dst, src, st.tw, st.m, inv)
	default:
		passN(dst, src, tmp[:st.f], st.tw, st.wf, st.m, inv)
	}
}

// first4 is the innermost stage (m = 1, so every butterfly meets the unit
// twiddles) fused with the gather: the block at offset o takes its inputs
// from row[perm[o:]], conjugated for an inverse transform.
func first4(buf, row []complex128, perm []int, tw []complex128, inverse bool) {
	w1, w2, w3 := tw[0], tw[1], tw[2]
	for o := 0; o+4 <= len(perm); o += 4 {
		ix, d := perm[o:o+4:o+4], buf[o:o+4:o+4]
		t0, t1, t2, t3 := row[ix[0]], row[ix[1]], row[ix[2]], row[ix[3]]
		if inverse {
			t0, t1, t2, t3 = conj(t0), conj(t1), conj(t2), conj(t3)
		}
		t1 *= w1
		t2 *= w2
		t3 *= w3
		a := t0 + t2
		b := t0 - t2
		cc := t1 + t3
		dd := t1 - t3
		id := complex(imag(dd), -real(dd))
		d[0], d[1], d[2], d[3] = a+cc, b+id, a-cc, b-id
	}
}

// first2 is first4's radix-2 counterpart.
func first2(buf, row []complex128, perm []int, tw []complex128, inverse bool) {
	w1 := tw[0]
	for o := 0; o+2 <= len(perm); o += 2 {
		ix, d := perm[o:o+2:o+2], buf[o:o+2:o+2]
		t0, t1 := row[ix[0]], row[ix[1]]
		if inverse {
			t0, t1 = conj(t0), conj(t1)
		}
		t1 *= w1
		d[0], d[1] = t0+t1, t0-t1
	}
}

// pass2, pass3 and pass4 are the specialized radices. Each splits a block
// into its f input and output rows and re-slices them to the twiddle row's
// length, which is what lets the compiler drop the bounds checks inside the
// butterfly loop.
func pass2(dst, src, tw []complex128, m int, inv float64) {
	final := inv != 0
	w1 := tw[:m]
	for o := 0; o+2*m <= len(src); o += 2 * m {
		s, d := src[o:o+2*m], dst[o:o+2*m]
		s0, s1 := s[:m], s[m:]
		d0, d1 := d[:m], d[m:]
		s0, s1, d0, d1 = s0[:len(w1)], s1[:len(w1)], d0[:len(w1)], d1[:len(w1)]
		for k, w := range w1 {
			t0 := s0[k]
			t1 := s1[k] * w
			x0, x1 := t0+t1, t0-t1
			if final {
				x0, x1 = conjScaled(x0, inv), conjScaled(x1, inv)
			}
			d0[k], d1[k] = x0, x1
		}
	}
}

func pass4(dst, src, tw []complex128, m int, inv float64) {
	final := inv != 0
	w1, w2, w3 := tw[:m], tw[m:2*m], tw[2*m:]
	w2, w3 = w2[:len(w1)], w3[:len(w1)]
	for o := 0; o+4*m <= len(src); o += 4 * m {
		s, d := src[o:o+4*m], dst[o:o+4*m]
		s0, s1, s2, s3 := s[:m], s[m:2*m], s[2*m:3*m], s[3*m:]
		d0, d1, d2, d3 := d[:m], d[m:2*m], d[2*m:3*m], d[3*m:]
		s0, s1, s2, s3 = s0[:len(w1)], s1[:len(w1)], s2[:len(w1)], s3[:len(w1)]
		d0, d1, d2, d3 = d0[:len(w1)], d1[:len(w1)], d2[:len(w1)], d3[:len(w1)]
		for k := range w1 {
			t0 := s0[k]
			t1 := s1[k] * w1[k]
			t2 := s2[k] * w2[k]
			t3 := s3[k] * w3[k]
			a := t0 + t2
			b := t0 - t2
			cc := t1 + t3
			dd := t1 - t3
			// -i*dd and +i*dd spelled out.
			id := complex(imag(dd), -real(dd))
			x0, x1, x2, x3 := a+cc, b+id, a-cc, b-id
			if final {
				x0, x1 = conjScaled(x0, inv), conjScaled(x1, inv)
				x2, x3 = conjScaled(x2, inv), conjScaled(x3, inv)
			}
			d0[k], d1[k], d2[k], d3[k] = x0, x1, x2, x3
		}
	}
}

func pass3(dst, src, tw []complex128, m int, inv float64) {
	// ω_3 = -1/2 - i√3/2
	const half = 0.5
	sq := math.Sqrt(3) / 2
	final := inv != 0
	w1, w2 := tw[:m], tw[m:]
	w2 = w2[:len(w1)]
	for o := 0; o+3*m <= len(src); o += 3 * m {
		s, d := src[o:o+3*m], dst[o:o+3*m]
		s0, s1, s2 := s[:m], s[m:2*m], s[2*m:]
		d0, d1, d2 := d[:m], d[m:2*m], d[2*m:]
		s0, s1, s2 = s0[:len(w1)], s1[:len(w1)], s2[:len(w1)]
		d0, d1, d2 = d0[:len(w1)], d1[:len(w1)], d2[:len(w1)]
		for k := range w1 {
			t0 := s0[k]
			t1 := s1[k] * w1[k]
			t2 := s2[k] * w2[k]
			sum := t1 + t2
			diff := t1 - t2
			// X1 = t0 + ω t1 + ω² t2, X2 = t0 + ω² t1 + ω t2
			re := complex(-half*real(sum), -half*imag(sum))
			im := complex(sq*imag(diff), -sq*real(diff))
			x0, x1, x2 := t0+sum, t0+re+im, t0+re-im
			if final {
				x0, x1, x2 = conjScaled(x0, inv), conjScaled(x1, inv), conjScaled(x2, inv)
			}
			d0[k], d1[k], d2[k] = x0, x1, x2
		}
	}
}

// passN is the generic O(f²) butterfly; tmp holds its f twiddled inputs.
func passN(dst, src, tmp, tw, wf []complex128, m int, inv float64) {
	f := len(tmp)
	for o := 0; o+f*m <= len(src); o += f * m {
		s, d := src[o:o+f*m], dst[o:o+f*m]
		for k1 := 0; k1 < m; k1++ {
			for j := range tmp {
				tmp[j] = s[j*m+k1] * tw[j*m+k1]
			}
			for k2 := 0; k2 < f; k2++ {
				w := wf[k2*f : (k2+1)*f]
				sum := tmp[0]
				for j := 1; j < f; j++ {
					sum += tmp[j] * w[j]
				}
				d[k2*m+k1] = scaled(sum, inv)
			}
		}
	}
}
