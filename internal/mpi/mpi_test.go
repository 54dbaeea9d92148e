package mpi

// The behavioral contract tests (point-to-point matching, collectives,
// split) live in conformance_test.go, where they run against every
// transport. This file keeps what is not transport-parametrizable: process
// grid factoring, randomized properties (kept on the fast inproc world), and
// the legacy process-local world counters.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBalancedDims(t *testing.T) {
	cases := []struct {
		n, d int
	}{{1, 3}, {2, 3}, {4, 3}, {8, 3}, {12, 3}, {16, 2}, {60, 3}, {7, 3}, {96, 3}}
	for _, tc := range cases {
		dims := BalancedDims(tc.n, tc.d)
		prod := 1
		for _, v := range dims {
			prod *= v
		}
		if prod != tc.n {
			t.Errorf("BalancedDims(%d,%d)=%v product %d", tc.n, tc.d, dims, prod)
		}
		for i := 1; i < len(dims); i++ {
			if dims[i] > dims[i-1] {
				t.Errorf("BalancedDims(%d,%d)=%v not descending", tc.n, tc.d, dims)
			}
		}
	}
}

// Property: AllReduce(sum) equals the serially computed sum for random
// vectors on a random communicator size.
func TestAllReduceSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(9)
		n := 1 + rng.Intn(50)
		data := make([][]float64, p)
		want := make([]float64, n)
		for r := range data {
			data[r] = make([]float64, n)
			for i := range data[r] {
				data[r][i] = rng.NormFloat64()
				want[i] += data[r][i]
			}
		}
		ok := true
		err := Run(p, func(c *Comm) {
			got := AllReduce(c, data[c.Rank()], SumF64)
			for i := range got {
				d := got[i] - want[i]
				if d < -1e-9 || d > 1e-9 {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: AllToAll is its own inverse in the sense that sending back the
// received buffers returns the originals.
func TestAllToAllRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(7)
		orig := make([][][]float32, p) // orig[me][dst]
		for me := 0; me < p; me++ {
			orig[me] = make([][]float32, p)
			for dst := 0; dst < p; dst++ {
				n := rng.Intn(20)
				orig[me][dst] = make([]float32, n)
				for i := range orig[me][dst] {
					orig[me][dst][i] = rng.Float32()
				}
			}
		}
		ok := true
		err := Run(p, func(c *Comm) {
			me := c.Rank()
			got := AllToAll(c, orig[me])
			back := AllToAll(c, got)
			for dst := 0; dst < p; dst++ {
				if len(back[dst]) != len(orig[me][dst]) {
					ok = false
					continue
				}
				for i := range back[dst] {
					if back[dst][i] != orig[me][dst][i] {
						ok = false
					}
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWorldCounters(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 0, make([]float64, 10))
		} else {
			Recv[float64](c, 0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.BytesSent.Load() != 80 {
		t.Errorf("BytesSent=%d want 80", w.BytesSent.Load())
	}
	if w.MsgsSent.Load() != 1 {
		t.Errorf("MsgsSent=%d want 1", w.MsgsSent.Load())
	}
}

// Split context derivation must be deterministic (it is computed
// independently in every process of a wire world) and collision-free across
// the split trees a real run produces.
func TestSplitCtxDeterministic(t *testing.T) {
	seen := map[int64][3]int64{}
	for _, parent := range []int64{0, 1, -7, 1 << 40} {
		for seq := int64(0); seq < 8; seq++ {
			for color := 0; color < 8; color++ {
				ctx := splitCtx(parent, seq, color)
				if ctx2 := splitCtx(parent, seq, color); ctx2 != ctx {
					t.Fatalf("splitCtx not deterministic: %d vs %d", ctx, ctx2)
				}
				if ctx == 0 {
					t.Fatal("splitCtx produced the reserved world context 0")
				}
				key := [3]int64{parent, seq, int64(color)}
				if prev, ok := seen[ctx]; ok && prev != key {
					t.Fatalf("splitCtx collision: %v and %v -> %d", prev, key, ctx)
				}
				seen[ctx] = key
			}
		}
	}
}

// TestMailboxMatchVacatesSlot pins that a matched message leaves no copy of
// itself in the queue's spare capacity: a receive that hands its payload
// over must not have it pinned by the mailbox until later traffic
// overwrites the slot.
func TestMailboxMatchVacatesSlot(t *testing.T) {
	m := newMailbox(0)
	for tag := 0; tag < 3; tag++ {
		m.put(message{tag: tag, payload: []float64{float64(tag)}})
	}
	for _, tag := range []int{1, 0, 2} {
		if msg, ok := m.match(0, 0, tag); !ok || msg.tag != tag {
			t.Fatalf("match tag %d: got %+v, %v", tag, msg, ok)
		}
	}
	for i, msg := range m.pending[:cap(m.pending)] {
		if msg.payload != nil {
			t.Errorf("queue slot %d still holds a payload after every message was matched", i)
		}
	}
}

// TestPlanTags pins the plan tag space: every tag of every plan ID the
// field holds is a positive int32 at or above planTagBase (so it survives
// the wire's sign-extended u32 and meets no collective tag), one plan's
// tags differ from its neighbour's, and the communicator panics instead of
// wrapping once the IDs run out.
func TestPlanTags(t *testing.T) {
	var c Comm
	first := c.NewTags()
	if tag := first.Next(); tag != planTagBase {
		t.Fatalf("first plan's first tag %#x, want %#x", tag, planTagBase)
	}
	c.plans = maxPlans - 2
	prev, last := c.NewTags(), c.NewTags()
	seen := map[int]bool{}
	for i := 0; i < 2<<planSeqBits; i++ {
		for _, tags := range []*Tags{&prev, &last} {
			tag := tags.Next()
			if tag < planTagBase || tag > math.MaxInt32 || int(int32(uint32(tag))) != tag {
				t.Fatalf("tag %#x outside the positive int32 plan range", tag)
			}
			seen[tag] = true
		}
	}
	if len(seen) != 2<<planSeqBits {
		t.Errorf("two plans drew %d distinct tags, want %d", len(seen), 2<<planSeqBits)
	}
	if !seen[math.MaxInt32] {
		t.Error("the last plan's block does not end at MaxInt32")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewTags past the last plan ID did not panic")
		}
	}()
	c.NewTags()
}
