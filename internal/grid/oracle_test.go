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
