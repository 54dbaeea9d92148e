package grid

import (
	"hacc/internal/mpi"
	"hacc/internal/pfft"
)

// Exchanger moves ghost-cell data between the ranks of a block
// decomposition. It is one pfft plan, from the decomposition's layout
// padded by the ghost width (the interior of a field's storage) to that
// layout's halo (Layout.Halo, where ghost slot g holds canonical cell
// g mod N), and it serves both directions:
//
//   - Fill runs the plan: interior values are copied outward so every ghost
//     slot holds its canonical cell (e.g. before force interpolation of
//     overloaded particles).
//   - Accumulate runs the plan's transpose, which adds every ghost value
//     (e.g. CIC deposit spill) into its canonical cell — after the owner's
//     own value, leg by leg in rank order, then the rank's own wraps, the
//     dense all-to-all oracle's order — and then zeroes the ghosts.
//
// The plan is built once per (decomposition, ghost width) and reused every
// step; only values move afterwards. Both directions split into Begin
// (pack + send every leg) and End (receive + unpack), so callers can
// overlap the exchange with computation; Accumulate/Fill are the
// sequential Begin+End compositions. Every Begin draws a fresh tag from
// the plan's mpi.Tags, so several ghost collectives may be in flight at
// once — the three acceleration-component Fills pipelined against
// interpolation — and no two exchangers match each other's messages. The
// dense all-to-all form the plan is checked against lives in
// oracle_test.go, with its own per-cell lists.
type Exchanger struct {
	plan *pfft.Redistributor[float64]
}

// GhostOp is one in-flight ghost collective, produced by AccumulateBegin or
// FillBegin and completed by End.
type GhostOp struct {
	op  pfft.Op[float64]
	acc *Field // the accumulated field, whose ghosts End zeroes; nil for a fill
}

// NewExchanger builds an exchange plan; the field f supplies the ghost
// width, at most the grid's extent (its data is not touched). Collective:
// the ranks check their legs with one all-to-all, and every rank of c must
// build its exchangers in the same order among c's plans.
func NewExchanger(c *mpi.Comm, d *Decomp, f *Field) *Exchanger {
	lay := d.Layout().Padded(f.Ghost)
	return &Exchanger{plan: pfft.NewRedistributor[float64](c, lay, lay.Halo())}
}

// NumLegs returns the number of ranks a collective sends to (≤ the
// 26-stencil for sub-boxes wider than the ghost halo), for message-count
// accounting.
func (e *Exchanger) NumLegs() int { return e.plan.NumSends() }

// AccumulateBegin packs every remote ghost value and sends one message per
// neighbor leg. Collective (all ranks must call their Begin/End pairs in
// the same order); complete with End.
func (e *Exchanger) AccumulateBegin(f *Field) GhostOp {
	return GhostOp{op: e.plan.BeginTranspose(f.Data, f.Data), acc: f}
}

// FillBegin packs every interior value mirrored by a neighbor's halo and
// sends one message per leg. Collective; complete with End.
func (e *Exchanger) FillBegin(f *Field) GhostOp {
	return GhostOp{op: e.plan.Begin(f.Data, f.Data)}
}

// End receives the op's legs and unpacks them, applies the rank's own
// wraps, and — for accumulates — zeroes the ghost halo.
func (op GhostOp) End() {
	op.op.End()
	if op.acc != nil {
		op.acc.ZeroGhosts()
	}
}

// Accumulate adds every ghost value into its owning cell (local pairs and
// remote ranks alike), then zeroes the ghost halo. Collective.
func (e *Exchanger) Accumulate(f *Field) { e.AccumulateBegin(f).End() }

// Fill copies interior values outward so every ghost slot holds the
// periodic value of its canonical cell. Collective.
func (e *Exchanger) Fill(f *Field) { e.FillBegin(f).End() }
