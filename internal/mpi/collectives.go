package mpi

import (
	"fmt"

	"hacc/internal/fault"
)

// hitCollective reports entry into a collective to an armed fault injector.
// Nested collectives (AllGather's Gather+Bcast, AllOK's AllReduce) each
// report, so "every Nth collective" counts primitive entries, not top-level
// calls.
func hitCollective(c *Comm) {
	if inj := fault.Armed(); inj != nil {
		inj.Hit(fault.PointCollective, c.worldRank(c.rank), -1)
	}
}

// Reserved internal tags for collectives. User code should use tags >= 0;
// collective traffic uses the high bit so the two never collide.
const (
	tagBarrier = -2 - iota
	tagBcast
	tagAllReduce
	tagGather
	tagAllToAll
)

// Barrier blocks until every rank of the communicator has entered it.
// Implemented as a dissemination barrier: ceil(log2 p) rounds of pairwise
// messages, the same pattern used by high-quality MPI implementations.
func Barrier(c *Comm) {
	hitCollective(c)
	p := c.Size()
	if p == 1 {
		return
	}
	me := c.Rank()
	for dist := 1; dist < p; dist *= 2 {
		dst := (me + dist) % p
		src := (me - dist + p) % p
		Send(c, dst, tagBarrier, []byte{1})
		Recv[byte](c, src, tagBarrier)
	}
}

// Bcast distributes root's buffer to every rank and returns it. Ranks other
// than root may pass nil. Implemented as a binomial tree.
func Bcast[T any](c *Comm, root int, buf []T) []T {
	hitCollective(c)
	p := c.Size()
	if p == 1 {
		return buf
	}
	c.checkRank(root, "root")
	// Rotate ranks so the root is virtual rank 0.
	vr := (c.Rank() - root + p) % p
	// Smallest power of two above vr; vr's tree parent is vr-recvMask/2.
	recvMask := 1
	for recvMask <= vr {
		recvMask *= 2
	}
	if vr != 0 {
		parent := (vr - recvMask/2 + root) % p
		buf = Recv[T](c, parent, tagBcast)
	}
	for mask := recvMask; vr+mask < p || (vr == 0 && mask < p); mask *= 2 {
		dst := vr + mask
		if dst < p {
			Send(c, (dst+root)%p, tagBcast, buf)
		}
	}
	return buf
}

// Op is a binary reduction operator. It must be associative.
type Op[T any] func(a, b T) T

// AllReduce combines equal-length buffers element-wise with op and returns
// the result on every rank. Recursive doubling with a pre/post phase for
// non-power-of-two sizes.
func AllReduce[T any](c *Comm, buf []T, op Op[T]) []T {
	hitCollective(c)
	p := c.Size()
	acc := append([]T(nil), buf...)
	if p == 1 {
		return acc
	}
	me := c.Rank()
	// pow2 = largest power of two <= p.
	pow2 := 1
	for pow2*2 <= p {
		pow2 *= 2
	}
	rem := p - pow2
	combine := func(other []T) {
		if len(other) != len(acc) {
			panic(fmt.Sprintf("mpi: AllReduce length mismatch %d != %d", len(other), len(acc)))
		}
		for i := range acc {
			acc[i] = op(acc[i], other[i])
		}
	}
	// Phase 1: the first 2*rem ranks fold pairs so pow2 ranks remain active.
	var active bool
	var vrank int
	switch {
	case me < 2*rem && me%2 == 0: // sends its data, goes inactive
		SendMove(c, me+1, tagAllReduce, acc)
		active = false
	case me < 2*rem: // odd: receives and folds
		combine(Recv[T](c, me-1, tagAllReduce))
		active = true
		vrank = me / 2
	default:
		active = true
		vrank = me - rem
	}
	toReal := func(vr int) int {
		if vr < rem {
			return vr*2 + 1
		}
		return vr + rem
	}
	if active {
		for mask := 1; mask < pow2; mask *= 2 {
			partner := toReal(vrank ^ mask)
			Send(c, partner, tagAllReduce, acc)
			combine(Recv[T](c, partner, tagAllReduce))
		}
	}
	// Phase 3: hand results back to the folded ranks.
	if me < 2*rem {
		if me%2 == 1 {
			Send(c, me-1, tagAllReduce, acc)
		} else {
			acc = Recv[T](c, me+1, tagAllReduce)
		}
	}
	return acc
}

// Gather concentrates each rank's buffer on root, concatenated in rank
// order. Buffers may have different lengths. Non-root ranks receive nil.
func Gather[T any](c *Comm, root int, buf []T) []T {
	hitCollective(c)
	p := c.Size()
	c.checkRank(root, "root")
	if c.Rank() != root {
		Send(c, root, tagGather, buf)
		return nil
	}
	parts := make([][]T, p)
	parts[root] = buf
	total := len(buf)
	for r := 0; r < p; r++ {
		if r == root {
			continue
		}
		parts[r] = Recv[T](c, r, tagGather)
		total += len(parts[r])
	}
	out := make([]T, 0, total)
	for r := 0; r < p; r++ {
		out = append(out, parts[r]...)
	}
	return out
}

// AllGather concatenates every rank's buffer in rank order and returns the
// result on all ranks. Ring algorithm when buffers are equal-length is not
// assumed; a bcast of the gathered result keeps the code simple and the
// message count O(p log p).
func AllGather[T any](c *Comm, buf []T) []T {
	out := Gather(c, 0, buf)
	return Bcast(c, 0, out)
}

// AllToAll performs a personalized all-to-all exchange: sendParts[r] goes to
// rank r; the returned slice holds, at index r, the buffer received from
// rank r. Buffers may have arbitrary (including zero) lengths — this is
// MPI_Alltoallv. Pairwise-exchange schedule.
func AllToAll[T any](c *Comm, sendParts [][]T) [][]T {
	hitCollective(c)
	p := c.Size()
	if len(sendParts) != p {
		panic(fmt.Sprintf("mpi: AllToAll needs %d parts, got %d", p, len(sendParts)))
	}
	me := c.Rank()
	recv := make([][]T, p)
	recv[me] = append([]T(nil), sendParts[me]...)
	for step := 1; step < p; step++ {
		dst := (me + step) % p
		src := (me - step + p) % p
		Send(c, dst, tagAllToAll, sendParts[dst])
		recv[src] = Recv[T](c, src, tagAllToAll)
	}
	return recv
}

// AllOK reports whether every rank of the communicator passed ok=true.
// Collective. It is the agreement primitive behind collective I/O: one
// rank's local failure (a full disk, a permission error) becomes one
// consistent collective outcome on every rank, and a true result doubles
// as a completion barrier — when AllOK returns, every rank has entered it,
// so file-visibility-ordering steps (create before open, write before
// rename) can safely follow.
func AllOK(c *Comm, ok bool) bool {
	v := 1
	if !ok {
		v = 0
	}
	return AllReduce(c, []int{v}, MinInt)[0] == 1
}

// Common reduction operators.

// SumF64 adds float64s.
func SumF64(a, b float64) float64 { return a + b }

// SumI64 adds int64s.
func SumI64(a, b int64) int64 { return a + b }

// SumInt adds ints.
func SumInt(a, b int) int { return a + b }

// MaxF64 keeps the larger float64.
func MaxF64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// MinF64 keeps the smaller float64.
func MinF64(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// MaxInt keeps the larger int.
func MaxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// MinInt keeps the smaller int.
func MinInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
