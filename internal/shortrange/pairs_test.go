package shortrange

import (
	"math"
	"math/rand"
	"testing"

	"hacc/internal/par"
)

// fakeBlocks is a Blocks index over fixed target ranges: block b's
// neighbours are its own range widened by `reach` on both sides, plus the
// first `reach` slots as a second span when they do not overlap the first.
type fakeBlocks struct {
	ranges [][2]int32
	n      int32
	reach  int32
}

func (f *fakeBlocks) NumBlocks() int { return len(f.ranges) }

func (f *fakeBlocks) Block(ws *Scratch, b int) (s, e int32) {
	s, e = f.ranges[b][0], f.ranges[b][1]
	lo, hi := max(s-f.reach, 0), min(e+f.reach, f.n)
	ws.Spans = append(ws.Spans[:0], [2]int32{lo, hi})
	if lo > f.reach {
		ws.Spans = append(ws.Spans, [2]int32{0, f.reach})
	}
	ws.Nodes++
	return
}

// TestPairsDriver pins the driver on its own: Load concatenates the sets
// with an identity Orig across the join, and Run gives bitwise-equal
// accelerations and equal work counters on 1, 2 and 4 workers without
// ever handing the kernel an empty block.
func TestPairsDriver(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ax, ay, az := randomMeshParticles(300, 10, rng)
	px, py, pz := randomMeshParticles(120, 10, rng)
	var p Pairs
	p.Load([3][]float32{ax, ay, az}, [3][]float32{px, py, pz})
	n := len(ax) + len(px)
	if len(p.X) != n || len(p.AX) != n || len(p.Orig) != n {
		t.Fatalf("Load sized X/AX/Orig to %d/%d/%d, want %d", len(p.X), len(p.AX), len(p.Orig), n)
	}
	for i, o := range p.Orig {
		if int(o) != i {
			t.Fatalf("Orig[%d] = %d, want the identity", i, o)
		}
		wx, wy, wz := ax, ay, az
		j := i
		if j >= len(ax) {
			wx, wy, wz, j = px, py, pz, j-len(ax)
		}
		if p.X[i] != wx[j] || p.Y[i] != wy[j] || p.Z[i] != wz[j] {
			t.Fatalf("slot %d does not hold loaded particle %d", i, i)
		}
	}

	// Uneven blocks with empty ones among them, including at both ends.
	idx := &fakeBlocks{n: int32(n), reach: 25}
	for s := int32(0); s < int32(n); {
		e := min(s+int32(rng.Intn(40)), int32(n))
		idx.ranges = append(idx.ranges, [2]int32{s, e})
		s = e
	}
	idx.ranges = append([][2]int32{{0, 0}}, append(idx.ranges, [2]int32{int32(n), int32(n)})...)
	copyKern := meshCopyAdapter(simpleKernel)
	kern := func(lx, ly, lz, px, py, pz []float32, ranges [][2]int32, ax, ay, az []float32) int64 {
		if len(lx) == 0 {
			t.Error("an empty block reached the kernel")
		}
		return copyKern(lx, ly, lz, px, py, pz, ranges, ax, ay, az)
	}

	var ref [3][]float32
	var refInter, refNbr int64
	for _, workers := range []int{1, 2, 4} {
		p.AX[0] = 1 // Run must zero the accumulators
		p.Interactions.Store(0)
		p.NeighborCount.Store(0)
		p.NodesVisited.Store(0)
		p.Run(idx, kern, par.NewPool(workers))
		if got := p.NodesVisited.Load(); got != int64(len(idx.ranges)) {
			t.Fatalf("workers=%d: NodesVisited %d, want one per block (%d)", workers, got, len(idx.ranges))
		}
		if workers == 1 {
			ref = [3][]float32{append([]float32(nil), p.AX...), append([]float32(nil), p.AY...), append([]float32(nil), p.AZ...)}
			refInter, refNbr = p.Interactions.Load(), p.NeighborCount.Load()
			if refInter == 0 || refNbr == 0 {
				t.Fatal("no work counted")
			}
			continue
		}
		if p.Interactions.Load() != refInter || p.NeighborCount.Load() != refNbr {
			t.Fatalf("workers=%d: counters (%d,%d), one worker (%d,%d)", workers,
				p.Interactions.Load(), p.NeighborCount.Load(), refInter, refNbr)
		}
		for i := range ref[0] {
			if math.Float32bits(p.AX[i]) != math.Float32bits(ref[0][i]) ||
				math.Float32bits(p.AY[i]) != math.Float32bits(ref[1][i]) ||
				math.Float32bits(p.AZ[i]) != math.Float32bits(ref[2][i]) {
				t.Fatalf("workers=%d: slot %d differs from one worker", workers, i)
			}
		}
	}
}
