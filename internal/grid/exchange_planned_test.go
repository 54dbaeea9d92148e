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
// counts (including 1, where everything is a self wrap) and ghost widths.
// At ghost 5 and 6 on 16³ a halo reaches past the neighbor's box and back,
// so one leg mirrors an owned cell twice: the accumulate must add both
// contributions in the oracle's order.
func TestGhostPlannedMatchesDense(t *testing.T) {
	n := [3]int{16, 16, 16}
	for _, tc := range []struct{ p, ghost int }{{1, 2}, {2, 2}, {4, 2}, {8, 2}, {2, 5}, {2, 6}, {8, 5}, {8, 6}} {
		p, g := tc.p, tc.ghost
		err := mpi.Run(p, func(c *mpi.Comm) {
			dec := NewDecomp(n, p)
			box := dec.Box(c.Rank())
			fp := NewField(n, box, g)
			fd := NewField(n, box, g)
			e := NewExchanger(c, dec, fp)
			o := newDenseExchanger(c, dec, fd)
			for round := 0; round < 2; round++ {
				seed := int64(1000*p + 100*g + 10*c.Rank() + round)
				randomField(fp, seed)
				randomField(fd, seed)
				e.Accumulate(fp)
				o.Accumulate(fd)
				sameData(t, fmt.Sprintf("p=%d ghost=%d round=%d accumulate", p, g, round), fp, fd)
				randomField(fp, seed+7)
				randomField(fd, seed+7)
				e.Fill(fp)
				o.Fill(fd)
				sameData(t, fmt.Sprintf("p=%d ghost=%d round=%d fill", p, g, round), fp, fd)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestGhostPlanMatchesPerCell pins the run planner against the per-cell
// one: the runs, expanded cell by cell, give identical self pairs, ghost
// slots and requested coordinates, in the same order, and each run list is
// allocated at its final length — for ghost widths 1–6 on 1–8 ranks, on a
// cubic uniform decomposition and on a non-cubic one with uneven cuts.
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
				runs := planGhosts(l.dec, f, me)
				if got, want := runs.expand(), planGhostsPerCell(l.dec, f, me); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s ghost=%d rank %d: expanded run plan differs from the per-cell plan", l.name, g, me)
				}
				exact := cap(runs.self) == len(runs.self)
				for r := range runs.ghost {
					exact = exact && cap(runs.ghost[r]) == len(runs.ghost[r]) && cap(runs.want[r]) == len(runs.want[r])
				}
				if !exact {
					t.Fatalf("%s ghost=%d rank %d: a run list was not allocated at its final length", l.name, g, me)
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
		o := newDenseExchanger(c, dec, accRef)
		randomField(acc, int64(c.Rank()+99))
		randomField(accRef, int64(c.Rank()+99))
		fillOp := e.FillBegin(pip[0])
		accOp := e.AccumulateBegin(acc)
		accOp.End()
		fillOp.End()
		o.Accumulate(accRef)
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
			randomField(f, int64(c.Rank()))
			if dense {
				o := newDenseExchanger(c, dec, f)
				o.Accumulate(f)
				o.Fill(f)
				return
			}
			e := NewExchanger(c, dec, f)
			if c.Rank() == 0 {
				legs = e.NumLegs()
			}
			e.Accumulate(f)
			e.Fill(f)
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
