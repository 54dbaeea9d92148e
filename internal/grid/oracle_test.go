package grid

import (
	"hacc/internal/mpi"
	"hacc/internal/par"
)

// AccumulateDense is the legacy dense all-to-all accumulate, retained as
// the equivalence oracle for the planned legs. Collective.
func (e *Exchanger) AccumulateDense(f *Field) {
	p := e.comm.Size()
	send := e.sendScratch()
	for r := 0; r < p; r++ {
		if len(e.ghostSlots[r]) == 0 {
			continue
		}
		buf := par.Resize(send[r], len(e.ghostSlots[r]))
		for i, s := range e.ghostSlots[r] {
			buf[i] = f.Data[s]
		}
		send[r] = buf
	}
	recv := mpi.AllToAll(e.comm, send)
	for r := 0; r < p; r++ {
		for i, idx := range e.ownedIdx[r] {
			f.Data[idx] += recv[r][i]
		}
	}
	for i, s := range e.selfGhost {
		f.Data[e.selfOwned[i]] += f.Data[s]
	}
	f.ZeroGhosts()
}

// FillDense is the legacy dense all-to-all fill, retained as the
// equivalence oracle for the planned legs. Collective.
func (e *Exchanger) FillDense(f *Field) {
	p := e.comm.Size()
	send := e.sendScratch()
	for r := 0; r < p; r++ {
		if len(e.ownedIdx[r]) == 0 {
			continue
		}
		buf := par.Resize(send[r], len(e.ownedIdx[r]))
		for i, idx := range e.ownedIdx[r] {
			buf[i] = f.Data[idx]
		}
		send[r] = buf
	}
	recv := mpi.AllToAll(e.comm, send)
	for r := 0; r < p; r++ {
		for i, s := range e.ghostSlots[r] {
			f.Data[s] = recv[r][i]
		}
	}
	for i, s := range e.selfGhost {
		f.Data[s] = f.Data[e.selfOwned[i]]
	}
}

// planGhostsPerCell is the earlier ghost planner, kept as the oracle for
// planGhosts: it wraps every slot of the extended box and asks RankOf for
// its owner, one cell at a time.
func planGhostsPerCell(d *Decomp, f *Field, me int) ghostPlan {
	p := d.NumRanks()
	pl := ghostPlan{ghostSlots: make([][]int, p), coords: make([][]int32, p)}
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
