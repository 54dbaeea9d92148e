package analysis

import (
	"math"
	"sort"

	"hacc/internal/domain"
	"hacc/internal/grid"
)

// The serial friends-of-friends oracles. They link every pair by brute
// force, so they share no binning or sweep logic with the Plan they check;
// O(n²), test scale only.

// bruteRoots unions every pair (i, j) for which near holds and returns each
// index's root: the smallest index of its component, as in the Plan.
func bruteRoots(n int, near func(i, j int) bool) []int32 {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !near(i, j) {
				continue
			}
			ri, rj := find(int32(i)), find(int32(j))
			if ri > rj {
				ri, rj = rj, ri
			}
			parent[rj] = ri
		}
	}
	for i := range parent {
		parent[i] = find(int32(i))
	}
	return parent
}

// groupMembers lists each component's members in ascending index order,
// components ordered by their root.
func groupMembers(roots []int32) [][]int32 {
	slot := map[int32]int{}
	var groups [][]int32
	for i, r := range roots {
		g, ok := slot[r]
		if !ok {
			g = len(groups)
			slot[r] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], int32(i))
	}
	return groups
}

// FOF runs open-boundary friends-of-friends with linking length b (grid
// units) and the Plan's float32 distance predicate, keeping groups with at
// least minN members, largest first.
func FOF(x, y, z []float32, b float64, minN int) []Halo {
	b2 := float32(b * b)
	roots := bruteRoots(len(x), func(i, j int) bool {
		dx := x[i] - x[j]
		dy := y[i] - y[j]
		dz := z[i] - z[j]
		return dx*dx+dy*dy+dz*dz <= b2
	})
	var halos []Halo
	for _, members := range groupMembers(roots) {
		if len(members) >= minN {
			halos = append(halos, haloFromMembers(x, y, z, nil, nil, nil, members))
		}
	}
	sort.SliceStable(halos, func(i, j int) bool { return halos[i].N > halos[j].N })
	return halos
}

func haloFromMembers(x, y, z, vx, vy, vz []float32, members []int32) Halo {
	h := Halo{N: len(members), Members: members}
	for _, i := range members {
		h.X += float64(x[i])
		h.Y += float64(y[i])
		h.Z += float64(z[i])
		if vx != nil {
			h.VX += float64(vx[i])
			h.VY += float64(vy[i])
			h.VZ += float64(vz[i])
		}
	}
	inv := 1 / float64(h.N)
	h.X *= inv
	h.Y *= inv
	h.Z *= inv
	h.VX *= inv
	h.VY *= inv
	h.VZ *= inv
	for _, i := range members {
		dx := float64(x[i]) - h.X
		dy := float64(y[i]) - h.Y
		dz := float64(z[i]) - h.Z
		if r := math.Sqrt(dx*dx + dy*dy + dz*dz); r > h.RMax {
			h.RMax = r
		}
	}
	h.Mass = float64(h.N)
	return h
}

// FindHalos runs FOF over this rank's actives plus overloaded replicas and
// keeps only halos whose center of mass lies in the rank's own sub-box —
// the overloading trick that makes halo finding embarrassingly local (each
// boundary-crossing halo is complete on exactly one rank, provided halo
// radius < overload width). No communication.
func FindHalos(dom *domain.Domain, dec *grid.Decomp, b float64, minN int, particleMass float64) []Halo {
	x := append(append([]float32(nil), dom.Active.X...), dom.Passive.X...)
	y := append(append([]float32(nil), dom.Active.Y...), dom.Passive.Y...)
	z := append(append([]float32(nil), dom.Active.Z...), dom.Passive.Z...)
	vx := append(append([]float32(nil), dom.Active.Vx...), dom.Passive.Vx...)
	vy := append(append([]float32(nil), dom.Active.Vy...), dom.Passive.Vy...)
	vz := append(append([]float32(nil), dom.Active.Vz...), dom.Passive.Vz...)

	box := dom.Box
	var out []Halo
	for _, h := range FOF(x, y, z, b, minN) {
		h2 := haloFromMembers(x, y, z, vx, vy, vz, h.Members)
		h2.Mass = float64(h2.N) * particleMass
		// Ownership: center of mass inside my box (half-open test matches
		// the particle ownership rule, so exactly one rank keeps it).
		if h2.X >= float64(box.Lo[0]) && h2.X < float64(box.Hi[0]) &&
			h2.Y >= float64(box.Lo[1]) && h2.Y < float64(box.Hi[1]) &&
			h2.Z >= float64(box.Lo[2]) && h2.Z < float64(box.Hi[2]) {
			out = append(out, h2)
		}
	}
	return out
}

// FOFDense is the serial periodic friends-of-friends oracle: it links the
// full (global) particle set with minimum-image distances on the periodic
// n-cell box and returns halos with ≥ minN members, computed with the same
// reference-frame formulas as the distributed Plan — the center of mass is
// the minimum-ID member's position plus the mean minimum-image offset,
// wrapped into the box; GID is the minimum member particle ID; Mass is the
// member count (unit particle mass). Velocities may be nil.
func FOFDense(x, y, z, vx, vy, vz []float32, ids []uint64, n [3]int, b float64, minN int) []Halo {
	fn := [3]float64{float64(n[0]), float64(n[1]), float64(n[2])}
	roots := bruteRoots(len(x), func(i, j int) bool {
		dx := minImage(float64(x[i])-float64(x[j]), fn[0])
		dy := minImage(float64(y[i])-float64(y[j]), fn[1])
		dz := minImage(float64(z[i])-float64(z[j]), fn[2])
		return dx*dx+dy*dy+dz*dz <= b*b
	})

	// Compute properties in the minimum-ID frame.
	var halos []Halo
	for _, members := range groupMembers(roots) {
		if len(members) < minN {
			continue
		}
		mi := members[0]
		var gid uint64 = math.MaxUint64
		for _, m := range members {
			id := uint64(m)
			if ids != nil {
				id = ids[m]
			}
			if id < gid {
				gid = id
				mi = m
			}
		}
		ref := [3]float64{float64(x[mi]), float64(y[mi]), float64(z[mi])}
		h := Halo{N: len(members), GID: gid, Mass: float64(len(members)), Members: members}
		var sx, sy, sz float64
		for _, m := range members {
			sx += minImage(float64(x[m])-ref[0], fn[0])
			sy += minImage(float64(y[m])-ref[1], fn[1])
			sz += minImage(float64(z[m])-ref[2], fn[2])
			if vx != nil {
				h.VX += float64(vx[m])
				h.VY += float64(vy[m])
				h.VZ += float64(vz[m])
			}
		}
		inv := 1 / float64(h.N)
		mx, my, mz := sx*inv, sy*inv, sz*inv
		h.X = wrapF64(ref[0]+mx, fn[0])
		h.Y = wrapF64(ref[1]+my, fn[1])
		h.Z = wrapF64(ref[2]+mz, fn[2])
		h.VX *= inv
		h.VY *= inv
		h.VZ *= inv
		for _, m := range members {
			dx := minImage(float64(x[m])-ref[0], fn[0]) - mx
			dy := minImage(float64(y[m])-ref[1], fn[1]) - my
			dz := minImage(float64(z[m])-ref[2], fn[2]) - mz
			if r := math.Sqrt(dx*dx + dy*dy + dz*dz); r > h.RMax {
				h.RMax = r
			}
		}
		halos = append(halos, h)
	}
	sort.Slice(halos, func(i, j int) bool {
		if halos[i].N != halos[j].N {
			return halos[i].N > halos[j].N
		}
		return halos[i].GID < halos[j].GID
	})
	return halos
}
