package grid

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hacc/internal/mpi"
)

// randomField fills a ghosted field (halo included) with rank-seeded values.
func randomField(f *Field, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
}

func sameData(t *testing.T, what string, a, b *Field) {
	t.Helper()
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Errorf("%s: cell %d differs: %v vs %v", what, i, a.Data[i], b.Data[i])
			return
		}
	}
}

// TestGhostPlannedMatchesDense pins the planned neighbor-leg exchange
// against the dense all-to-all oracle bitwise, both directions, across rank
// counts (including 1, where everything is a self wrap).
func TestGhostPlannedMatchesDense(t *testing.T) {
	n := [3]int{16, 16, 16}
	for _, p := range []int{1, 2, 4, 8} {
		err := mpi.Run(p, func(c *mpi.Comm) {
			dec := NewDecomp(n, p)
			box := dec.Box(c.Rank())
			fp := NewField(n, box, 2)
			fd := NewField(n, box, 2)
			e := NewExchanger(c, dec, fp)
			for round := 0; round < 2; round++ {
				seed := int64(1000*p + 10*c.Rank() + round)
				randomField(fp, seed)
				randomField(fd, seed)
				e.Accumulate(fp)
				e.AccumulateDense(fd)
				sameData(t, fmt.Sprintf("p=%d round=%d accumulate", p, round), fp, fd)
				randomField(fp, seed+7)
				randomField(fd, seed+7)
				e.Fill(fp)
				e.FillDense(fd)
				sameData(t, fmt.Sprintf("p=%d round=%d fill", p, round), fp, fd)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestGhostPlanMatchesPerCell pins the table-driven planner against the
// per-cell one: identical self pairs, ghost slots and requested coordinates,
// in the same order and each list allocated at its final length, for ghost widths 1–6 on 1–8 ranks, on a cubic uniform
// decomposition and on a non-cubic one with uneven cuts.
func TestGhostPlanMatchesPerCell(t *testing.T) {
	type layout struct {
		name string
		dec  *Decomp
	}
	var layouts []layout
	for p := 1; p <= 8; p++ {
		layouts = append(layouts, layout{fmt.Sprintf("cubic p=%d", p), NewDecomp([3]int{16, 16, 16}, p)})
	}
	layouts = append(layouts, layout{"uneven 2x3x1", NewDecompCuts([3]int{14, 18, 13}, [3]int{2, 3, 1},
		[3][]int{{0, 9, 14}, {0, 2, 11, 18}, {0, 13}})})
	for _, l := range layouts {
		for g := 1; g <= 6; g++ {
			for me := 0; me < l.dec.NumRanks(); me++ {
				f := NewField(l.dec.N, l.dec.Box(me), g)
				got, want := planGhosts(l.dec, f, me), planGhostsPerCell(l.dec, f, me)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s ghost=%d rank %d: table plan differs from the per-cell plan", l.name, g, me)
				}
				// Every list was sized exactly up front.
				exact := cap(got.selfGhost) == len(got.selfGhost) && cap(got.selfOwned) == len(got.selfOwned)
				for r := range got.ghostSlots {
					exact = exact && cap(got.ghostSlots[r]) == len(got.ghostSlots[r]) && cap(got.coords[r]) == len(got.coords[r])
				}
				if !exact {
					t.Fatalf("%s ghost=%d rank %d: a list was not allocated at its final length", l.name, g, me)
				}
			}
		}
	}
}

// TestGhostFillPipelined pins the overlap pattern core uses: three Fill
// collectives posted before any is completed (on the same shared exchanger
// plan) must equal three sequential fills bitwise.
func TestGhostFillPipelined(t *testing.T) {
	n := [3]int{16, 16, 16}
	err := mpi.Run(4, func(c *mpi.Comm) {
		dec := NewDecomp(n, 4)
		box := dec.Box(c.Rank())
		var pip, seq [3]*Field
		for d := 0; d < 3; d++ {
			pip[d] = NewField(n, box, 2)
			seq[d] = NewField(n, box, 2)
			seed := int64(10*c.Rank() + d)
			randomField(pip[d], seed)
			randomField(seq[d], seed)
		}
		e := NewExchanger(c, dec, pip[0])
		var ops [3]*GhostOp
		for d := 0; d < 3; d++ {
			ops[d] = e.FillBegin(pip[d])
		}
		for d := 0; d < 3; d++ {
			ops[d].End()
			e.Fill(seq[d])
			sameData(t, fmt.Sprintf("component %d", d), pip[d], seq[d])
		}
		// An accumulate posted while a fill is pending must also stay
		// isolated (distinct sequenced tags).
		acc := NewField(n, box, 2)
		accRef := NewField(n, box, 2)
		randomField(acc, int64(c.Rank()+99))
		randomField(accRef, int64(c.Rank()+99))
		fillOp := e.FillBegin(pip[0])
		accOp := e.AccumulateBegin(acc)
		accOp.End()
		fillOp.End()
		e.AccumulateDense(accRef)
		sameData(t, "interleaved accumulate", acc, accRef)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGhostMessageCountStencil: on a 64-rank world with sub-boxes wider
// than the halo, a planned ghost collective sends one message per
// 26-stencil neighbor per rank, against the dense oracle's P·(P−1).
func TestGhostMessageCountStencil(t *testing.T) {
	if testing.Short() {
		t.Skip("64-rank worlds; skipped under -short (race CI)")
	}
	const p = 64
	n := [3]int{32, 32, 32}
	count := func(dense bool) (msgs int64, legs int) {
		w := mpi.NewWorld(p)
		err := w.Run(func(c *mpi.Comm) {
			dec := NewDecomp(n, p)
			f := NewField(n, dec.Box(c.Rank()), 2)
			e := NewExchanger(c, dec, f)
			randomField(f, int64(c.Rank()))
			if c.Rank() == 0 {
				legs = e.NumLegs()
			}
			if dense {
				e.AccumulateDense(f)
				e.FillDense(f)
			} else {
				e.Accumulate(f)
				e.Fill(f)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		// Total world traffic minus the plan construction's one all-to-all
		// (p−1 messages per rank): a deterministic count, no in-flight
		// snapshot races.
		return w.MsgsSent.Load() - int64(p*(p-1)), legs
	}
	planned, legs := count(false)
	dense, _ := count(true)
	if legs != 26 {
		t.Errorf("exchanger legs = %d, want 26 on a 4x4x4 process grid", legs)
	}
	bound := int64(2 * 26 * p) // one message per leg per collective, two collectives
	if planned <= 0 || planned > bound {
		t.Errorf("planned Accumulate+Fill sent %d messages, want (0, %d]", planned, bound)
	}
	denseWant := int64(2 * p * (p - 1))
	if dense != denseWant {
		t.Errorf("dense Accumulate+Fill sent %d messages, want %d", dense, denseWant)
	}
}
