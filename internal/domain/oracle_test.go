package domain

import "hacc/internal/mpi"

// RefreshDense is the legacy dense all-to-all refresh (one full particle
// scan per catch entry), retained as the equivalence oracle for the planned
// path. Active positions must already be canonical (call Migrate first
// after any position update). Collective.
func (d *Domain) RefreshDense() {
	p := d.Comm.Size()
	d.Passive.Reset()
	_, sendF, sendI := d.commScratch()
	var selfF []float32
	var selfI []uint64
	var idx []int
	a := &d.Active
	for _, c := range d.catches {
		idx = idx[:0]
		for i := 0; i < a.Len(); i++ {
			if c.box.contains(float64(a.X[i]), float64(a.Y[i]), float64(a.Z[i])) {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		if c.rank == d.Comm.Rank() {
			selfF = a.packFloatsInto(selfF, idx, c.shift)
			selfI = a.packIDsInto(selfI, idx)
			continue
		}
		sendF[c.rank] = a.packFloatsInto(sendF[c.rank], idx, c.shift)
		sendI[c.rank] = a.packIDsInto(sendI[c.rank], idx)
	}
	recvF := mpi.AllToAll(d.Comm, sendF)
	recvI := mpi.AllToAll(d.Comm, sendI)
	d.origins = d.origins[:0]
	for r := 0; r < p; r++ {
		if r == d.Comm.Rank() {
			continue
		}
		d.Passive.unpack(recvF[r], recvI[r])
		d.origins = append(d.origins, Origin{Rank: r, N: len(recvI[r])})
	}
	d.Passive.unpack(selfF, selfI)
	d.origins = append(d.origins, Origin{Rank: d.Comm.Rank(), N: len(selfI)})
}
