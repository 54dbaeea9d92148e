package analysis

import (
	"math"
	"sort"
)

// Subhalo is a density-peak substructure inside a FOF halo (the colored
// clumps of Fig. 11).
type Subhalo struct {
	N       int
	X, Y, Z float64
	Members []int32 // indices into the parent halo's coordinate arrays
}

// SubhaloOptions tunes the finder.
type SubhaloOptions struct {
	LinkRadius float64 // neighbor search radius (default: FOF b)
	MinN       int     // minimum subhalo membership (default 10)
}

// FindSubhalos segments a halo's particles into density-peak basins with a
// HOP-style walk: estimate a local density for every particle from the
// neighbor count within LinkRadius, then attach each particle to its
// densest neighbor; particles that are their own density maximum seed
// subhalos. The dominant basin is the main halo; the rest are sub-halos.
func FindSubhalos(x, y, z []float32, members []int32, o SubhaloOptions) []Subhalo {
	n := len(members)
	if n == 0 {
		return nil
	}
	if o.MinN == 0 {
		o.MinN = 10
	}
	if o.LinkRadius == 0 {
		o.LinkRadius = 0.2
	}
	r2 := float32(o.LinkRadius * o.LinkRadius)

	// Local coordinates of halo members.
	px := make([]float32, n)
	py := make([]float32, n)
	pz := make([]float32, n)
	for i, m := range members {
		px[i], py[i], pz[i] = x[m], y[m], z[m]
	}
	// Cell list at LinkRadius resolution.
	var lo [3]float32
	lo = [3]float32{px[0], py[0], pz[0]}
	hi := lo
	for i := 0; i < n; i++ {
		lo[0] = minf(lo[0], px[i])
		lo[1] = minf(lo[1], py[i])
		lo[2] = minf(lo[2], pz[i])
		hi[0] = maxf(hi[0], px[i])
		hi[1] = maxf(hi[1], py[i])
		hi[2] = maxf(hi[2], pz[i])
	}
	inv := float32(1 / o.LinkRadius)
	var dims [3]int
	for d := 0; d < 3; d++ {
		ext := []float32{hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]}[d]
		dims[d] = int(ext*inv) + 2
	}
	ncell := dims[0] * dims[1] * dims[2]
	heads := make([]int32, ncell)
	for i := range heads {
		heads[i] = -1
	}
	next := make([]int32, n)
	cellIdx := func(i int) int32 {
		cx := int((px[i] - lo[0]) * inv)
		cy := int((py[i] - lo[1]) * inv)
		cz := int((pz[i] - lo[2]) * inv)
		return int32((cx*dims[1]+cy)*dims[2] + cz)
	}
	for i := 0; i < n; i++ {
		c := cellIdx(i)
		next[i] = heads[c]
		heads[c] = int32(i)
	}
	forNeighbors := func(i int, fn func(j int32)) {
		cx := int((px[i] - lo[0]) * inv)
		cy := int((py[i] - lo[1]) * inv)
		cz := int((pz[i] - lo[2]) * inv)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					nx, ny, nz := cx+dx, cy+dy, cz+dz
					if nx < 0 || nx >= dims[0] || ny < 0 || ny >= dims[1] || nz < 0 || nz >= dims[2] {
						continue
					}
					for j := heads[(nx*dims[1]+ny)*dims[2]+nz]; j >= 0; j = next[j] {
						ddx := px[i] - px[j]
						ddy := py[i] - py[j]
						ddz := pz[i] - pz[j]
						if ddx*ddx+ddy*ddy+ddz*ddz <= r2 {
							fn(j)
						}
					}
				}
			}
		}
	}

	// Density = neighbor count (flat kernel), deterministic ID tiebreak.
	dens := make([]int32, n)
	for i := 0; i < n; i++ {
		cnt := int32(0)
		forNeighbors(i, func(j int32) { cnt++ })
		dens[i] = cnt
	}
	denser := func(a, b int32) bool {
		if dens[a] != dens[b] {
			return dens[a] > dens[b]
		}
		return a < b
	}
	// Attach each particle to its densest neighbor.
	attach := make([]int32, n)
	for i := 0; i < n; i++ {
		best := int32(i)
		forNeighbors(i, func(j int32) {
			if denser(j, best) {
				best = j
			}
		})
		attach[i] = best
	}
	// Follow attachment chains to the density peak.
	root := func(i int32) int32 {
		for attach[i] != i {
			attach[i] = attach[attach[i]]
			i = attach[i]
		}
		return i
	}
	groups := map[int32][]int32{}
	for i := int32(0); i < int32(n); i++ {
		r := root(i)
		groups[r] = append(groups[r], i)
	}
	var subs []Subhalo
	for _, g := range groups {
		if len(g) < o.MinN {
			continue
		}
		var s Subhalo
		s.N = len(g)
		for _, i := range g {
			s.X += float64(px[i])
			s.Y += float64(py[i])
			s.Z += float64(pz[i])
			s.Members = append(s.Members, members[i])
		}
		inv := 1 / float64(s.N)
		s.X *= inv
		s.Y *= inv
		s.Z *= inv
		subs = append(subs, s)
	}
	sort.Slice(subs, func(i, j int) bool { return subs[i].N > subs[j].N })
	return subs
}

// DensityStats summarizes the deposited density field, standing in for the
// renderings of Figs. 2 and 9: the evolution of clustering is tracked by
// the variance and extrema of δ.
type DensityStats struct {
	Variance float64 // <δ²> over cells
	Max      float64 // max density contrast (the "10⁵" of §V)
	Min      float64
	NegFrac  float64 // fraction of underdense cells (voids)
}

// MeasureDensityStats computes density-contrast statistics from an owned
// density block with unit mean (the caller deposits and accumulates first).
func MeasureDensityStats(owned []float64) DensityStats {
	var s DensityStats
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	var neg int
	for _, rho := range owned {
		d := rho - 1
		s.Variance += d * d
		if d > s.Max {
			s.Max = d
		}
		if d < s.Min {
			s.Min = d
		}
		if d < 0 {
			neg++
		}
	}
	n := float64(len(owned))
	s.Variance /= n
	s.NegFrac = float64(neg) / n
	return s
}
