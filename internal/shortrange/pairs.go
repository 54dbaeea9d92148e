package shortrange

import (
	"sync/atomic"

	"hacc/internal/par"
)

// Blocks is a short-range solver seen from the force driver: a spatial
// index over the driver's working arrays that splits the targets into
// blocks (tree leaves, chaining-mesh cells) and names each block's
// neighbours. Block returns block b's target range [s,e) of the working
// arrays and leaves its neighbour spans in ws.Spans, in the order the
// kernel must visit them; an empty range (s == e) is skipped.
type Blocks interface {
	NumBlocks() int
	Block(ws *Scratch, b int) (s, e int32)
}

// Scratch is one worker's walk state, persistent across force evaluations.
type Scratch struct {
	Spans [][2]int32 // the current block's neighbour spans
	Stack []int32    // walk stack of an index that descends a tree
	Nodes int64      // index nodes visited; Run flushes it into NodesVisited
}

// Pairs is the short-range force driver both solvers embed. It owns the
// working copy of the particles, loaded from the caller's sets and
// permuted in place by the solver's Build, the accelerations, the
// working-slot → loaded-index map Orig, and one pooled force loop: every
// worker pulls blocks from a shared cursor and runs the kernel on the
// block's targets against its spans. Each block accumulates into its own
// target range only, so results are bitwise independent of the worker count
// and of which worker ran a block.
type Pairs struct {
	X, Y, Z    []float32
	AX, AY, AZ []float32
	// Orig maps each working slot to its index in the loaded sets (the
	// sets concatenated in Load order). It is a permutation.
	Orig []int32

	// Work counted since the last Load: pair interactions evaluated,
	// neighbour slots listed (summed span lengths) and index nodes visited.
	Interactions  atomic.Int64
	NeighborCount atomic.Int64
	NodesVisited  atomic.Int64

	walk   []Scratch
	next   atomic.Int64
	blocks Blocks
	kern   RangeKernel
	body   func(w int) // p.work, bound once so Run allocates nothing
}

// Load copies the coordinate sets, concatenated, into the working arrays,
// resets Orig to the identity and the work counters to zero. The solver's
// Build then indexes (and permutes) the loaded set.
func (p *Pairs) Load(sets ...[3][]float32) {
	p.X, p.Y, p.Z = p.X[:0], p.Y[:0], p.Z[:0]
	for _, s := range sets {
		p.X = append(p.X, s[0]...)
		p.Y = append(p.Y, s[1]...)
		p.Z = append(p.Z, s[2]...)
	}
	n := len(p.X)
	p.AX = par.Resize(p.AX, n)
	p.AY = par.Resize(p.AY, n)
	p.AZ = par.Resize(p.AZ, n)
	p.Orig = par.Resize(p.Orig, n)
	for i := range p.Orig {
		p.Orig[i] = int32(i)
	}
	p.Interactions.Store(0)
	p.NeighborCount.Store(0)
	p.NodesVisited.Store(0)
}

// Run zeroes the accelerations and evaluates kern over every block of the
// index on the pool's workers, accumulating into AX/AY/AZ.
func (p *Pairs) Run(blocks Blocks, kern RangeKernel, pool *par.Pool) {
	clear(p.AX)
	clear(p.AY)
	clear(p.AZ)
	if blocks.NumBlocks() == 0 {
		return
	}
	for len(p.walk) < pool.Workers() {
		p.walk = append(p.walk, Scratch{})
	}
	if p.body == nil {
		p.body = p.work
	}
	p.blocks, p.kern = blocks, kern
	p.next.Store(0)
	pool.Run(0, p.body)
}

// work is worker w's body: pull blocks from the shared cursor until none
// remain.
func (p *Pairs) work(w int) {
	ws := &p.walk[w]
	ws.Nodes = 0
	nb := int64(p.blocks.NumBlocks())
	var inter, nbr int64
	for {
		b := p.next.Add(1) - 1
		if b >= nb {
			break
		}
		s, e := p.blocks.Block(ws, int(b))
		if s == e {
			continue
		}
		for _, r := range ws.Spans {
			nbr += int64(r[1] - r[0])
		}
		inter += p.kern(p.X[s:e], p.Y[s:e], p.Z[s:e],
			p.X, p.Y, p.Z, ws.Spans,
			p.AX[s:e], p.AY[s:e], p.AZ[s:e])
	}
	p.Interactions.Add(inter)
	p.NeighborCount.Add(nbr)
	p.NodesVisited.Add(ws.Nodes)
}
