package pfft

import (
	"fmt"
	"math"
	"math/cmplx"
	"reflect"
	"testing"

	"hacc/internal/fft"
	"hacc/internal/mpi"
)

// redistributeReference is the pre-plan implementation (a personalized
// all-to-all that exchanged zero-length messages for empty intersections and
// round-tripped the self overlap through the mailbox), kept verbatim as the
// bitwise oracle for the Redistributor plan.
func redistributeReference[T any](c *mpi.Comm, src []T, from, to *Layout) []T {
	p := c.Size()
	me := c.Rank()
	mine := from.Boxes[me]
	sendParts := make([][]T, p)
	for r := 0; r < p; r++ {
		itc := Intersect(mine, to.Boxes[r])
		if itc.Empty() {
			continue
		}
		buf := make([]T, itc.Count())
		forEach(itc, from.Order, func(g [3]int, k int) {
			buf[k] = src[from.LocalIndex(me, g)]
		})
		sendParts[r] = buf
	}
	recv := mpi.AllToAll(c, sendParts)
	dstBox := to.Boxes[me]
	dst := make([]T, dstBox.Count())
	for r := 0; r < p; r++ {
		itc := Intersect(from.Boxes[r], dstBox)
		if itc.Empty() {
			continue
		}
		buf := recv[r]
		forEach(itc, from.Order, func(g [3]int, k int) {
			dst[to.LocalIndex(me, g)] = buf[k]
		})
	}
	return dst
}

// Redistribute is the one-shot form of a Redistributor (plan, run once,
// discard) that the tests use to move whole arrays between layouts.
func Redistribute[T any](c *mpi.Comm, src []T, from, to *Layout) []T {
	return NewRedistributor[T](c, from, to).Run(src, nil)
}

// TestRedistributorMatchesLegacy pins the planned redistribution bitwise
// against the all-to-all reference, over non-power-of-two grids, a
// single-rank world, slab (p2=1) layouts, and layouts with empty
// intersections; plan reuse across repeated Runs must be stable.
func TestRedistributorMatchesLegacy(t *testing.T) {
	cases := []struct {
		name     string
		n        [3]int
		procs    int
		from, to func(n [3]int, p int) *Layout
	}{
		{"block-to-pencil", [3]int{12, 10, 9}, 4,
			func(n [3]int, p int) *Layout { return Block3D(n, [3]int{2, 2, 1}) },
			func(n [3]int, p int) *Layout { return PencilZ(n, 2, 2) }},
		{"single-rank", [3]int{7, 5, 6}, 1,
			func(n [3]int, p int) *Layout { return Block3D(n, [3]int{1, 1, 1}) },
			func(n [3]int, p int) *Layout { return PencilX(n, 1, 1) }},
		{"slab", [3]int{8, 12, 10}, 4,
			func(n [3]int, p int) *Layout { return PencilX(n, p, 1) },
			func(n [3]int, p int) *Layout { return PencilY(n, p, 1) }},
		{"sparse-overlap", [3]int{11, 13, 8}, 6,
			func(n [3]int, p int) *Layout { return PencilX(n, 3, 2) },
			func(n [3]int, p int) *Layout { return PencilZ(n, 3, 2) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full := randomGlobal(tc.n, 31)
			from := tc.from(tc.n, tc.procs)
			to := tc.to(tc.n, tc.procs)
			err := mpi.Run(tc.procs, func(c *mpi.Comm) {
				local := scatterGlobal(c.Rank(), full, from)
				want := redistributeReference(c, local, from, to)
				rd := NewRedistributor[complex128](c, from, to)
				dst := make([]complex128, rd.DstLen())
				for rep := 0; rep < 3; rep++ {
					rd.Run(local, dst)
					for i := range dst {
						if dst[i] != want[i] {
							t.Errorf("rank %d rep %d idx %d: plan %v != legacy %v",
								c.Rank(), rep, i, dst[i], want[i])
							return
						}
					}
				}
				// The one-shot convenience must agree too.
				oneShot := Redistribute(c, local, from, to)
				for i := range oneShot {
					if oneShot[i] != want[i] {
						t.Errorf("rank %d: one-shot mismatch at %d", c.Rank(), i)
						return
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPencilPlannedMatchesUnplanned pins the planned, persistent-buffer
// ForwardReal/InverseReal bitwise against a manually composed legacy
// pipeline on the half layouts (per-call batch transforms + one-shot
// reference redistributions).
func TestPencilPlannedMatchesUnplanned(t *testing.T) {
	n := [3]int{12, 10, 8}
	const p1, p2 = 3, 2
	full := make([]float64, n[0]*n[1]*n[2])
	for i, v := range randomGlobal(n, 77) {
		full[i] = real(v)
	}
	err := mpi.Run(p1*p2, func(c *mpi.Comm) {
		p := NewPencil(c, n, p1, p2)
		rowFrom, rowTo, colFrom, colTo := restrictTransposes(p.nh, p1, p2, p.c1, p.c2,
			p.layXr, PencilY(p.nh, p1, p2), p.layZr)

		local := scatterReal(c.Rank(), full, p.layX)
		// Legacy composition, allocating at every stage.
		ref := make([]complex128, len(p.bufXr))
		p.planX.ForwardRealBatch(ref, local, p.rowsX)
		ref = redistributeReference(p.rowComm, ref, rowFrom, rowTo)
		p.planY.ForwardBatch(ref, p.rowsYr)
		ref = redistributeReference(p.colComm, ref, colFrom, colTo)
		p.planZ.ForwardBatch(ref, p.rowsZr)

		spec := p.ForwardReal(local)
		for i := range spec {
			if spec[i] != ref[i] {
				t.Errorf("rank %d idx %d: planned %v != legacy %v", c.Rank(), i, spec[i], ref[i])
				return
			}
		}

		// Inverse likewise.
		refInv := append([]complex128(nil), ref...)
		p.planZ.InverseBatch(refInv, p.rowsZr)
		refInv = redistributeReference(p.colComm, refInv, colTo, colFrom)
		p.planY.InverseBatch(refInv, p.rowsYr)
		refInv = redistributeReference(p.rowComm, refInv, rowTo, rowFrom)
		want := make([]float64, len(local))
		p.planX.InverseRealBatch(want, refInv, p.rowsX)

		back := make([]float64, len(local))
		p.InverseReal(append([]complex128(nil), spec...), back)
		for i := range back {
			if math.Float64bits(back[i]) != math.Float64bits(want[i]) {
				t.Errorf("rank %d idx %d: planned inverse %v != legacy %v", c.Rank(), i, back[i], want[i])
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// gatherGlobalR reconstructs the global half-spectrum array from local
// half-grid z-pencil pieces.
func gatherGlobalR(c *mpi.Comm, local []complex128, lay *Layout) []complex128 {
	n := lay.N
	full := make([]complex128, n[0]*n[1]*n[2])
	forEach(lay.Boxes[c.Rank()], lay.Order, func(g [3]int, k int) {
		full[(g[0]*n[1]+g[1])*n[2]+g[2]] = local[k]
	})
	return mpi.AllReduce(c, full, func(a, b complex128) complex128 { return a + b })
}

// TestPencilRealMatchesComplex: the distributed r2c forward must reproduce
// the non-negative-kx half of the complex transform to 1e-12 relative, and
// InverseReal(ForwardReal(x)) must return x, across pencil, slab (p2=1,
// including p1 exceeding the half extent), and single-rank decompositions,
// on even, odd, and non-cubic grids.
func TestPencilRealMatchesComplex(t *testing.T) {
	cases := []struct {
		n      [3]int
		p1, p2 int
	}{
		{[3]int{8, 8, 8}, 1, 1},
		{[3]int{8, 8, 8}, 2, 2},
		{[3]int{8, 8, 8}, 8, 1}, // slab with p1 > n0/2+1: empty half-pencils
		{[3]int{8, 8, 8}, 1, 4},
		{[3]int{12, 10, 8}, 3, 2}, // non-cubic
		{[3]int{9, 6, 10}, 2, 2},  // odd x extent
		{[3]int{10, 10, 10}, 5, 2},
	}
	for _, tc := range cases {
		full := randomGlobal(tc.n, 5)
		// Real field: drop the imaginary parts.
		realFull := make([]float64, len(full))
		for i, v := range full {
			realFull[i] = real(v)
		}
		want := make([]complex128, len(full))
		for i, v := range realFull {
			want[i] = complex(v, 0)
		}
		fft.NewPlan3(tc.n[0], tc.n[1], tc.n[2]).Forward(want)
		err := mpi.Run(tc.p1*tc.p2, func(c *mpi.Comm) {
			p := NewPencil(c, tc.n, tc.p1, tc.p2)
			var local []float64
			forEach(p.LocalX(), p.layX.Order, func(g [3]int, k int) {
				local = append(local, realFull[(g[0]*tc.n[1]+g[1])*tc.n[2]+g[2]])
			})
			if local == nil {
				local = []float64{}
			}
			spec := p.ForwardReal(local)
			half := gatherGlobalR(c, spec, p.layZr)
			if c.Rank() == 0 {
				nh := p.NHalf()
				var scale float64
				for _, v := range want {
					if a := cmplx.Abs(v); a > scale {
						scale = a
					}
				}
				for kx := 0; kx < nh[0]; kx++ {
					for ky := 0; ky < nh[1]; ky++ {
						for kz := 0; kz < nh[2]; kz++ {
							got := half[(kx*nh[1]+ky)*nh[2]+kz]
							w := want[(kx*tc.n[1]+ky)*tc.n[2]+kz]
							if cmplx.Abs(got-w) > 1e-12*scale {
								t.Errorf("n=%v p=%d×%d mode (%d,%d,%d): r2c %v != complex %v",
									tc.n, tc.p1, tc.p2, kx, ky, kz, got, w)
								return
							}
						}
					}
				}
			}
			// Round trip.
			back := make([]float64, len(local))
			specCopy := append([]complex128(nil), spec...)
			p.InverseReal(specCopy, back)
			for i := range back {
				d := back[i] - local[i]
				if d < 0 {
					d = -d
				}
				if d > 1e-12*10 {
					t.Errorf("n=%v p=%d×%d rank %d: round trip mismatch at %d: %g != %g",
						tc.n, tc.p1, tc.p2, c.Rank(), i, back[i], local[i])
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// indexPlan is the per-element plan the run lists replaced: for every leg,
// the local storage index of each element in the sender's pack order.
type indexPlan struct {
	selfSrc, selfDst []int
	sends, recvs     map[int][]int // peer rank → local indices in pack order
}

func newIndexPlan(me int, from, to *Layout) indexPlan {
	ip := indexPlan{sends: map[int][]int{}, recvs: map[int][]int{}}
	walk := func(itc Box, lay *Layout) []int {
		idx := make([]int, itc.Count())
		forEach(itc, from.Order, func(g [3]int, k int) { idx[k] = lay.LocalIndex(me, g) })
		return idx
	}
	for r := range from.Boxes {
		if itc := Intersect(from.Boxes[me], to.Boxes[r]); !itc.Empty() {
			if r == me {
				ip.selfSrc = walk(itc, from)
			} else {
				ip.sends[r] = walk(itc, from)
			}
		}
		if itc := Intersect(from.Boxes[r], to.Boxes[me]); !itc.Empty() {
			if r == me {
				ip.selfDst = walk(itc, to)
			} else {
				ip.recvs[r] = walk(itc, to)
			}
		}
	}
	return ip
}

// runMap expands a run list into dst index → src index, failing on a
// destination written twice.
func runMap(t *testing.T, runs []run) map[int]int {
	m := map[int]int{}
	for _, r := range runs {
		for i := 0; i < r.n; i++ {
			if _, dup := m[r.dst+i]; dup {
				t.Errorf("run list stores index %d twice", r.dst+i)
			}
			m[r.dst+i] = r.src + i*r.stride
		}
	}
	return m
}

// indexMap is the same map for an index-list leg; nil stands for the
// message, whose k-th element sits at position k.
func indexMap(src, dst []int) map[int]int {
	m := map[int]int{}
	for k := range max(len(src), len(dst)) {
		s, d := k, k
		if src != nil {
			s = src[k]
		}
		if dst != nil {
			d = dst[k]
		}
		m[d] = s
	}
	return m
}

// TestRedistributorRunsMatchIndexPlan pins the run plan against the index
// lists element for element: every leg must move the same elements between
// the same local indices and message positions (so the same pack order and
// the same bytes on the wire), with the same set of peers (so the same
// messages). Only the order in which a leg's elements are visited may differ.
func TestRedistributorRunsMatchIndexPlan(t *testing.T) {
	type pair struct {
		name     string
		from, to *Layout
	}
	var cases []pair
	add := func(name string, from, to *Layout) {
		cases = append(cases, pair{name, from, to}, pair{name + "-back", to, from})
	}
	n := [3]int{12, 10, 9}
	add("block-to-pencil", Block3D(n, [3]int{2, 2, 1}), PencilX(n, 2, 2))
	add("block-to-zpencil", Block3D(n, [3]int{1, 2, 3}), PencilZ(n, 3, 2))
	add("single-rank", Block3D([3]int{7, 5, 6}, [3]int{1, 1, 1}), PencilX([3]int{7, 5, 6}, 1, 1))
	add("slab", PencilX([3]int{8, 12, 10}, 4, 1), PencilY([3]int{8, 12, 10}, 4, 1))
	add("sparse-overlap", PencilX([3]int{11, 13, 8}, 3, 2), PencilZ([3]int{11, 13, 8}, 3, 2))
	// The transposes a Pencil actually plans, on the full grid and on the
	// half-spectrum grid (deep slab: some ranks own empty half pencils).
	for _, g := range []struct {
		n      [3]int
		p1, p2 int
	}{{[3]int{12, 10, 8}, 3, 2}, {[3]int{9, 6, 10}, 2, 2}, {[3]int{8, 8, 8}, 8, 1}} {
		for _, grid := range [][3]int{g.n, {g.n[0]/2 + 1, g.n[1], g.n[2]}} {
			layX, layY, layZ := PencilX(grid, g.p1, g.p2), PencilY(grid, g.p1, g.p2), PencilZ(grid, g.p1, g.p2)
			rowFrom, rowTo, colFrom, colTo := restrictTransposes(grid, g.p1, g.p2, g.p1-1, g.p2-1, layX, layY, layZ)
			add(fmt.Sprintf("row-%v-%dx%d", grid, g.p1, g.p2), rowFrom, rowTo)
			add(fmt.Sprintf("col-%v-%dx%d", grid, g.p1, g.p2), colFrom, colTo)
		}
	}
	for _, tc := range cases {
		err := mpi.Run(len(tc.from.Boxes), func(c *mpi.Comm) {
			me := c.Rank()
			rd := NewRedistributor[float64](c, tc.from, tc.to)
			want := newIndexPlan(me, tc.from, tc.to)
			if !reflect.DeepEqual(runMap(t, rd.self), indexMap(want.selfSrc, want.selfDst)) {
				t.Errorf("%s rank %d: self leg differs from the index plan", tc.name, me)
			}
			if len(rd.sends) != len(want.sends) || len(rd.recvs) != len(want.recvs) {
				t.Errorf("%s rank %d: %d sends / %d recvs, index plan %d / %d", tc.name, me,
					len(rd.sends), len(rd.recvs), len(want.sends), len(want.recvs))
			}
			for _, s := range rd.sends {
				idx := want.sends[s.rank]
				if !reflect.DeepEqual(runMap(t, s.runs), indexMap(idx, nil)) || s.count != len(idx) || rd.maxSend < len(idx) {
					t.Errorf("%s rank %d: send leg to %d differs from the index plan", tc.name, me, s.rank)
				}
			}
			for _, r := range rd.recvs {
				idx := want.recvs[r.rank]
				if !reflect.DeepEqual(runMap(t, r.runs), indexMap(nil, idx)) || r.count != len(idx) {
					t.Errorf("%s rank %d: recv leg from %d differs from the index plan", tc.name, me, r.rank)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkRedistribute measures one planned Run on two ranks of a 64³
// grid: the PM solver's block→x-pencil move of the real field, and the
// pencil FFT's x→y row transpose of the complex one.
func BenchmarkRedistribute(b *testing.B) {
	n := [3]int{64, 64, 64}
	b.Run("block-to-pencil", func(b *testing.B) {
		benchRedistribute[float64](b, 8, Block3D(n, [3]int{2, 1, 1}), PencilX(n, 2, 1))
	})
	b.Run("row-transpose", func(b *testing.B) {
		benchRedistribute[complex128](b, 16, PencilX(n, 2, 1), PencilY(n, 2, 1))
	})
}

func benchRedistribute[T any](b *testing.B, elemBytes int, from, to *Layout) {
	err := mpi.Run(len(from.Boxes), func(c *mpi.Comm) {
		rd := NewRedistributor[T](c, from, to)
		src, dst := make([]T, rd.SrcLen()), make([]T, rd.DstLen())
		rd.Run(src, dst)
		mpi.Barrier(c)
		if c.Rank() == 0 {
			b.SetBytes(int64(elemBytes * rd.SrcLen()))
			b.ReportAllocs()
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			rd.Run(src, dst)
		}
		mpi.Barrier(c)
		if c.Rank() == 0 {
			b.StopTimer()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// TestRedistTagBelowPlanTags: the redistributor's fixed tag lies below
// every tag an exchange plan draws, so a redistribution in flight beside a
// ghost, particle or stitch exchange never matches their messages.
func TestRedistTagBelowPlanTags(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) {
		tags := c.NewTags()
		if first := tags.Next(); redistTag >= first {
			t.Errorf("redistTag %#x is not below the first plan tag %#x", redistTag, first)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
