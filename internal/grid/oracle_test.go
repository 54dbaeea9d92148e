package grid

import "hacc/internal/mpi"

// cellPlan is the per-cell form of a ghost plan: every ghost slot of the
// extended box, in storage order, either paired with the interior cell it
// mirrors on this rank (selfGhost/selfOwned) or listed under its owner rank
// together with the canonical coordinates of the cell it mirrors
// (ghostSlots/coords, x,y,z triples).
type cellPlan struct {
	selfGhost, selfOwned []int
	ghostSlots           [][]int
	coords               [][]int32
}

// planGhostsPerCell is the dense oracle's planner: it wraps every slot of
// the extended box and asks RankOf for its owner, one cell at a time.
func planGhostsPerCell(d *Decomp, f *Field, me int) cellPlan {
	p := d.NumRanks()
	pl := cellPlan{ghostSlots: make([][]int, p), coords: make([][]int32, p)}
	g := f.Ghost
	for lx := -g; lx < f.size[0]+g; lx++ {
		for ly := -g; ly < f.size[1]+g; ly++ {
			for lz := -g; lz < f.size[2]+g; lz++ {
				interior := lx >= 0 && lx < f.size[0] &&
					ly >= 0 && ly < f.size[1] &&
					lz >= 0 && lz < f.size[2]
				if interior {
					continue
				}
				cx := wrap(f.Box.Lo[0]+lx, f.N[0])
				cy := wrap(f.Box.Lo[1]+ly, f.N[1])
				cz := wrap(f.Box.Lo[2]+lz, f.N[2])
				owner := d.RankOf(float64(cx), float64(cy), float64(cz))
				slot := ((lx+g)*f.ext[1]+ly+g)*f.ext[2] + lz + g
				if owner == me {
					pl.selfGhost = append(pl.selfGhost, slot)
					pl.selfOwned = append(pl.selfOwned, f.index(cx, cy, cz))
					continue
				}
				pl.ghostSlots[owner] = append(pl.ghostSlots[owner], slot)
				pl.coords[owner] = append(pl.coords[owner], int32(cx), int32(cy), int32(cz))
			}
		}
	}
	return pl
}

// denseExchanger is the legacy dense all-to-all ghost exchange, retained as
// the equivalence oracle for the planned legs. It carries its own per-cell
// lists from the per-cell planner: ghostSlots[r] lists my ghost slots
// whose canonical cell rank r owns, ownedIdx[r] my interior cells that
// rank r's ghost slots mirror (in r's canonical order).
type denseExchanger struct {
	comm                 *mpi.Comm
	ghostSlots, ownedIdx [][]int
	selfGhost, selfOwned []int
}

// newDenseExchanger plans the oracle. Collective (one all-to-all).
func newDenseExchanger(c *mpi.Comm, d *Decomp, f *Field) *denseExchanger {
	pl := planGhostsPerCell(d, f, c.Rank())
	o := &denseExchanger{comm: c, ghostSlots: pl.ghostSlots, selfGhost: pl.selfGhost, selfOwned: pl.selfOwned}
	for _, cs := range mpi.AllToAll(c, pl.coords) {
		idx := make([]int, len(cs)/3)
		for i := range idx {
			idx[i] = f.index(int(cs[3*i]), int(cs[3*i+1]), int(cs[3*i+2]))
		}
		o.ownedIdx = append(o.ownedIdx, idx)
	}
	return o
}

// Accumulate is the dense all-to-all accumulate. Collective.
func (o *denseExchanger) Accumulate(f *Field) {
	send := make([][]float64, o.comm.Size())
	for r, slots := range o.ghostSlots {
		for _, s := range slots {
			send[r] = append(send[r], f.Data[s])
		}
	}
	recv := mpi.AllToAll(o.comm, send)
	for r, idx := range o.ownedIdx {
		for i, c := range idx {
			f.Data[c] += recv[r][i]
		}
	}
	for i, s := range o.selfGhost {
		f.Data[o.selfOwned[i]] += f.Data[s]
	}
	f.ZeroGhosts()
}

// Fill is the dense all-to-all fill. Collective.
func (o *denseExchanger) Fill(f *Field) {
	send := make([][]float64, o.comm.Size())
	for r, idx := range o.ownedIdx {
		for _, c := range idx {
			send[r] = append(send[r], f.Data[c])
		}
	}
	recv := mpi.AllToAll(o.comm, send)
	for r, slots := range o.ghostSlots {
		for i, s := range slots {
			f.Data[s] = recv[r][i]
		}
	}
	for i, s := range o.selfGhost {
		f.Data[s] = f.Data[o.selfOwned[i]]
	}
}

func wrap(x, n int) int { return ((x % n) + n) % n }
