package shortrange

import (
	"math"
	"math/rand"
	"testing"
)

// laneModel is the scalar statement of the range bodies' contract for one
// target, written independently of applyRangesPortable: every pair term is
// dx*FSR(s) bit for bit, lane L of a span sums the terms of its full
// 4-blocks with j≡L (mod 4) in index order, a span with at least one
// 4-block contributes (l0+l2)+(l1+l3), its n&3 tail terms follow one by
// one, and the target receives gm times the total. Any per-lane drift in a
// body (FMA contraction, another rsqrt estimate, reordered Newton steps, an
// 8-wide fold in the wrong order) fails bitwise against it. Its own
// products are rounded explicitly, so no GOARCH fuses them.
func laneModel(k *Kernel, xi, yi, zi float32, px, py, pz []float32, ranges [][2]int32) [3]float32 {
	var sum [3]float32
	for _, r := range ranges {
		n := int(r[1] - r[0])
		n4 := n &^ 3
		term := func(j int) [3]float32 {
			dx := px[int(r[0])+j] - xi
			dy := py[int(r[0])+j] - yi
			dz := pz[int(r[0])+j] - zi
			f := k.FSR(float32(dx*dx) + float32(dy*dy) + float32(dz*dz))
			return [3]float32{float32(dx * f), float32(dy * f), float32(dz * f)}
		}
		var lane [4][3]float32
		for j := 0; j < n4; j++ {
			t := term(j)
			for c := range t {
				lane[j%4][c] += t[c]
			}
		}
		for c := range sum {
			if n4 > 0 {
				sum[c] += (lane[0][c] + lane[2][c]) + (lane[1][c] + lane[3][c])
			}
		}
		for j := n4; j < n; j++ {
			t := term(j)
			for c := range sum {
				sum[c] += t[c]
			}
		}
	}
	var a [3]float32
	for c := range a {
		a[c] += float32(k.gm * sum[c])
	}
	return a
}

// withBody runs fn once per kernel body this host supports (portable
// everywhere, sse2 and avx2 where the CPU has them), with ApplyRanges
// forced onto that body.
func withBody(t *testing.T, fn func(t *testing.T)) {
	for _, b := range rangeBodies {
		t.Run(b.isa, func(t *testing.T) {
			restore, ok := forceKernelISA(b.isa)
			if !ok {
				t.Fatalf("host body %q cannot be forced", b.isa)
			}
			defer restore()
			fn(t)
		})
	}
}

// TestFsrSpanBitExact pins every body to the scalar lane model on single
// spans: block counts that exercise the 8-wide loop, the trailing 4-block
// and both together, with the neighbors all inside r_cut, all outside (every
// vector takes the early-out), and straddling it in runs so the early-out
// fires mid-span.
func TestFsrSpanBitExact(t *testing.T) {
	k := NewKernel(benchPoly, 3.0, 0.01, 0.1)
	const xi, yi, zi = 4.5, 4.25, 4.75
	placements := []struct {
		name   string
		inside func(rng *rand.Rand, j int) bool
	}{
		{"inside", func(*rand.Rand, int) bool { return true }},
		{"outside", func(*rand.Rand, int) bool { return false }},
		{"straddle-runs", func(_ *rand.Rand, j int) bool { return (j/6)%2 == 0 }},
		{"straddle-random", func(rng *rand.Rand, _ int) bool { return rng.Intn(3) == 0 }},
	}
	withBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1234))
		for _, n := range []int{4, 8, 12, 20, 252} {
			for _, pl := range placements {
				px := make([]float32, n)
				py := make([]float32, n)
				pz := make([]float32, n)
				for j := range px {
					// Inside: within 1.5 cells per axis (r ≤ 2.6 < r_cut).
					// Outside: pushed at least 3.5 cells away along x.
					px[j] = xi + (rng.Float32()-0.5)*3
					py[j] = yi + (rng.Float32()-0.5)*3
					pz[j] = zi + (rng.Float32()-0.5)*3
					if !pl.inside(rng, j) {
						px[j] = xi + 3.5 + rng.Float32()
					}
				}
				ranges := [][2]int32{{0, int32(n)}}
				want := laneModel(k, xi, yi, zi, px, py, pz, ranges)
				var ax, ay, az [1]float32
				got := k.ApplyRanges([]float32{xi}, []float32{yi}, []float32{zi}, px, py, pz, ranges, ax[:], ay[:], az[:])
				if got != int64(n) {
					t.Fatalf("n=%d %s: %d interactions, want %d", n, pl.name, got, n)
				}
				for c, g := range [3]float32{ax[0], ay[0], az[0]} {
					if math.Float32bits(g) != math.Float32bits(want[c]) {
						t.Fatalf("n=%d %s comp %d: body %v (bits %08x), scalar lane model %v (bits %08x)",
							n, pl.name, c, g, math.Float32bits(g), want[c], math.Float32bits(want[c]))
					}
				}
				if pl.name == "outside" && (ax[0] != 0 || ay[0] != 0 || az[0] != 0) {
					t.Fatalf("n=%d: neighbors beyond r_cut contributed (%v %v %v)", n, ax[0], ay[0], az[0])
				}
			}
		}
	})
}

// randomSpans draws an ordered span list over [0,n): random gaps and
// lengths weighted toward the short cases (empty, 1-3 elements), always
// including a span that ends on element n-1.
func randomSpans(rng *rand.Rand, n int) [][2]int32 {
	var ranges [][2]int32
	for pos := 0; pos < n; {
		pos += rng.Intn(4)
		var l int
		switch rng.Intn(4) {
		case 0:
			l = 0
		case 1:
			l = 1 + rng.Intn(3)
		default:
			l = rng.Intn(40)
		}
		if pos+l > n {
			break
		}
		ranges = append(ranges, [2]int32{int32(pos), int32(pos + l)})
		pos += l
	}
	last := 1 + rng.Intn(11)
	if last > n {
		last = n
	}
	return append(ranges, [2]int32{int32(n - last), int32(n)})
}

// TestRangeBodiesAgree is the randomized ISA-equivalence property: for
// random targets and random span lists (empty spans, spans shorter than a
// vector, a span ending on the slice's last element) every body matches the
// lane model bit for bit — hence every other body — and reports the same
// interaction count.
func TestRangeBodiesAgree(t *testing.T) {
	k := NewKernel(benchPoly, 3.0, 0.01, 0.1)
	withBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 200; trial++ {
			nt := 1 + rng.Intn(5)
			n := 1 + rng.Intn(300)
			mk := func(m int) []float32 {
				v := make([]float32, m)
				for i := range v {
					v[i] = rng.Float32() * 9
				}
				return v
			}
			lx, ly, lz := mk(nt), mk(nt), mk(nt)
			px, py, pz := mk(n), mk(n), mk(n)
			ranges := randomSpans(rng, n)
			var listLen int64
			for _, r := range ranges {
				listLen += int64(r[1] - r[0])
			}
			ax := make([]float32, nt)
			ay := make([]float32, nt)
			az := make([]float32, nt)
			if got := k.ApplyRanges(lx, ly, lz, px, py, pz, ranges, ax, ay, az); got != int64(nt)*listLen {
				t.Fatalf("trial %d: %d interactions, want %d", trial, got, int64(nt)*listLen)
			}
			for i := 0; i < nt; i++ {
				want := laneModel(k, lx[i], ly[i], lz[i], px, py, pz, ranges)
				for c, g := range [3]float32{ax[i], ay[i], az[i]} {
					if math.Float32bits(g) != math.Float32bits(want[c]) {
						t.Fatalf("trial %d target %d comp %d: body %v (bits %08x), lane model %v (bits %08x); spans %v",
							trial, i, c, g, math.Float32bits(g), want[c], math.Float32bits(want[c]), ranges)
					}
				}
			}
		}
	})
}

// TestApplyRangesAllocFree: ApplyRanges allocates nothing, on any body.
func TestApplyRangesAllocFree(t *testing.T) {
	k, lx, ly, lz, px, py, pz, ranges := benchKernelSetup(8, 5)
	ax := make([]float32, len(lx))
	ay := make([]float32, len(lx))
	az := make([]float32, len(lx))
	withBody(t, func(t *testing.T) {
		if n := testing.AllocsPerRun(20, func() {
			k.ApplyRanges(lx, ly, lz, px, py, pz, ranges, ax, ay, az)
		}); n != 0 {
			t.Fatalf("ApplyRanges allocates %v times per call, want 0", n)
		}
	})
}

// TestKernelISA: the reported name is the body in use, and forcing an
// unknown body is refused without changing it.
func TestKernelISA(t *testing.T) {
	want := rangeBodies[len(rangeBodies)-1].isa
	if got := KernelISA(); got != want {
		t.Fatalf("KernelISA() = %q, want the widest host body %q", got, want)
	}
	if _, ok := forceKernelISA("avx512"); ok {
		t.Fatal("forceKernelISA accepted a body this package does not have")
	}
	if got := KernelISA(); got != want {
		t.Fatalf("a refused force changed the body to %q", got)
	}
}
