package shortrange

// buildMesh loads the coordinates into a new chaining mesh and bins them.
func buildMesh(x, y, z []float32, cellSize float64) *ChainingMesh {
	m := NewMesh(cellSize)
	m.Rebuild(x, y, z)
	return m
}

// copyForces is the gathering walk, the oracle for the mesh's Block: cell
// by cell, in order, it copies the particles of the 27 surrounding cells
// (in dx, dy, dz order) into one neighbour list and runs kern on it.
// Accelerations overwrite AX/AY/AZ; it returns the interactions kern
// reported.
func copyForces(m *ChainingMesh, kern func(lx, ly, lz, nx, ny, nz, ax, ay, az []float32) int64) (inter int64) {
	clear(m.AX)
	clear(m.AY)
	clear(m.AZ)
	var nx, ny, nz []float32
	for c := 0; c < m.NumBlocks(); c++ {
		s, e := m.starts[c], m.starts[c+1]
		if s == e {
			continue
		}
		cz := c % m.dims[2]
		cy := (c / m.dims[2]) % m.dims[1]
		cx := c / (m.dims[1] * m.dims[2])
		nx, ny, nz = nx[:0], ny[:0], nz[:0]
		for x := cx - 1; x <= cx+1; x++ {
			for y := cy - 1; y <= cy+1; y++ {
				for z := cz - 1; z <= cz+1; z++ {
					if x < 0 || x >= m.dims[0] || y < 0 || y >= m.dims[1] || z < 0 || z >= m.dims[2] {
						continue
					}
					nc := (x*m.dims[1]+y)*m.dims[2] + z
					ns, ne := m.starts[nc], m.starts[nc+1]
					nx = append(nx, m.X[ns:ne]...)
					ny = append(ny, m.Y[ns:ne]...)
					nz = append(nz, m.Z[ns:ne]...)
				}
			}
		}
		inter += kern(m.X[s:e], m.Y[s:e], m.Z[s:e], nx, ny, nz, m.AX[s:e], m.AY[s:e], m.AZ[s:e])
	}
	return
}

// AccelInto scatters the driver's accelerations back to the loaded
// particle order, adding into ax/ay/az. Test-only (this package's tests
// and the cross-solver tests of package shortrange_test); production kicks
// velocities through Orig directly.
func (p *Pairs) AccelInto(ax, ay, az []float32) {
	for i, o := range p.Orig {
		ax[o] += p.AX[i]
		ay[o] += p.AY[i]
		az[o] += p.AZ[i]
	}
}
