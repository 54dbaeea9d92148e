package mpi

// The transport-conformance suite: every behavioral contract of the mpi API
// — point-to-point matching, eager-send buffer semantics, FIFO order per
// envelope, the seven collectives, AllOK agreement, split contexts,
// abort/timeout classification, fault-hook parity — expressed once and run
// against every transport. The inproc goroutine world is the
// reference; the wire transports (tcp and the unix fast path, driven through
// the RunWire loopback harness) must be observationally identical, which is
// what licenses `haccsim -par` to call a multi-process run equivalent to the
// goroutine oracle.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"hacc/internal/fault"
)

// runFn executes fn on every rank of a p-rank world over some transport.
type runFn func(p int, fn func(c *Comm)) error

type transportCase struct {
	name string
	run  runFn
}

func conformanceTransports() []transportCase {
	wire := func(transport string) runFn {
		return func(p int, fn func(c *Comm)) error {
			return RunWire(p, WireOptions{Transport: transport, Timeout: 20 * time.Second}, fn)
		}
	}
	return []transportCase{
		{"inproc", func(p int, fn func(c *Comm)) error { return Run(p, fn) }},
		{"tcp", wire("tcp")},
		{"unix", wire("unix")},
	}
}

type conformanceCheck struct {
	name string
	fn   func(t *testing.T, tc transportCase)
}

func TestConformance(t *testing.T) {
	for _, tc := range conformanceTransports() {
		t.Run(tc.name, func(t *testing.T) {
			for _, chk := range conformanceChecks {
				t.Run(chk.name, func(t *testing.T) { chk.fn(t, tc) })
			}
		})
	}
}

// mustRun fails the test on a world error.
func mustRun(t *testing.T, tc transportCase, p int, fn func(c *Comm)) {
	t.Helper()
	if err := tc.run(p, fn); err != nil {
		t.Fatal(err)
	}
}

var conformanceChecks = []conformanceCheck{
	{"SendRecvBasic", func(t *testing.T, tc transportCase) {
		mustRun(t, tc, 2, func(c *Comm) {
			if c.Rank() == 0 {
				Send(c, 1, 7, []float64{1, 2, 3})
			} else {
				got := Recv[float64](c, 0, 7)
				if len(got) != 3 || got[0] != 1 || got[2] != 3 {
					t.Errorf("got %v", got)
				}
			}
		})
	}},

	{"SendCopies", func(t *testing.T, tc transportCase) {
		mustRun(t, tc, 2, func(c *Comm) {
			if c.Rank() == 0 {
				buf := []int{1, 2, 3}
				Send(c, 1, 0, buf)
				buf[0] = 99 // must not affect receiver
				Send(c, 1, 1, buf)
			} else {
				a := Recv[int](c, 0, 0)
				b := Recv[int](c, 0, 1)
				if a[0] != 1 {
					t.Errorf("Send aliased the caller's buffer: %v", a)
				}
				if b[0] != 99 {
					t.Errorf("second message wrong: %v", b)
				}
			}
		})
	}},

	{"SendMoveDelivers", func(t *testing.T, tc transportCase) {
		mustRun(t, tc, 2, func(c *Comm) {
			if c.Rank() == 0 {
				SendMove(c, 1, 0, []float32{1, 2, 3})
			} else {
				got := Recv[float32](c, 0, 0)
				if len(got) != 3 || got[2] != 3 {
					t.Errorf("got %v", got)
				}
			}
		})
	}},

	{"TagMatching", func(t *testing.T, tc transportCase) {
		mustRun(t, tc, 2, func(c *Comm) {
			if c.Rank() == 0 {
				Send(c, 1, 5, []int{5})
				Send(c, 1, 3, []int{3})
			} else {
				// Receive out of arrival order by tag.
				three := Recv[int](c, 0, 3)
				five := Recv[int](c, 0, 5)
				if three[0] != 3 || five[0] != 5 {
					t.Errorf("tag matching broken: %v %v", three, five)
				}
			}
		})
	}},

	{"AnySource", func(t *testing.T, tc transportCase) {
		mustRun(t, tc, 4, func(c *Comm) {
			if c.Rank() != 0 {
				Send(c, 0, 1, []int{c.Rank()})
				return
			}
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				v := Recv[int](c, AnySource, 1)
				seen[v[0]] = true
			}
			if len(seen) != 3 {
				t.Errorf("expected 3 distinct sources, got %v", seen)
			}
		})
	}},

	{"SendRecvExchange", func(t *testing.T, tc transportCase) {
		// Both ranks send before either receives: eager sends make the
		// symmetric exchange deadlock-free.
		mustRun(t, tc, 2, func(c *Comm) {
			me := c.Rank()
			other := 1 - me
			Send(c, other, 3, []int{me * 10})
			got := Recv[int](c, other, 3)
			if got[0] != other*10 {
				t.Errorf("rank %d received %d", me, got[0])
			}
		})
	}},

	{"ZeroLengthMessage", func(t *testing.T, tc transportCase) {
		mustRun(t, tc, 2, func(c *Comm) {
			if c.Rank() == 0 {
				Send(c, 1, 1, []float64{})
				Send(c, 1, 2, []byte(nil))
			} else {
				if got := Recv[float64](c, 0, 1); len(got) != 0 {
					t.Errorf("empty message arrived with %d elements", len(got))
				}
				if got := Recv[byte](c, 0, 2); len(got) != 0 {
					t.Errorf("nil message arrived with %d elements", len(got))
				}
			}
		})
	}},

	{"ZeroSizeElementRejected", func(t *testing.T, tc transportCase) {
		// A wire frame carries bytes, not an element count, so no
		// transport may accept a zero-size element type: Send panics
		// before anything is delivered.
		mustRun(t, tc, 2, func(c *Comm) {
			if c.Rank() == 1 {
				if got := Recv[byte](c, 0, AnyTag); len(got) != 1 || got[0] != 1 {
					t.Errorf("first message delivered was %v, want [1]", got)
				}
				return
			}
			for name, send := range map[string]func(){
				"Send":     func() { Send(c, 1, 0, []struct{}{{}, {}}) },
				"SendMove": func() { SendMove(c, 1, 0, make([][0]float64, 3)) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s of a zero-size element type did not panic", name)
						}
					}()
					send()
				}()
			}
			Send(c, 1, 1, []byte{1})
		})
	}},

	{"StructPayload", func(t *testing.T, tc transportCase) {
		type particle struct {
			X, Y, Z float64
			ID      uint64
		}
		mustRun(t, tc, 2, func(c *Comm) {
			if c.Rank() == 0 {
				Send(c, 1, 0, []particle{{1.5, -2.25, 3.125, 42}, {0, 0.1, 0, 7}})
			} else {
				got := Recv[particle](c, 0, 0)
				if len(got) != 2 || got[0] != (particle{1.5, -2.25, 3.125, 42}) || got[1].ID != 7 {
					t.Errorf("got %+v", got)
				}
			}
		})
	}},

	{"ElementSizesRoundTrip", func(t *testing.T, tc transportCase) {
		// A wire payload is handed to Recv in place as the receiver's []T;
		// every element size and alignment the runtime carries must come
		// back bit-exact, the empty message included.
		type pod12 struct {
			A float32
			B int32
			C uint16
			D [2]uint8
		}
		mustRun(t, tc, 2, func(c *Comm) {
			if c.Rank() == 0 {
				Send(c, 1, 1, []uint8{1, 254, 7})
				Send(c, 1, 2, []int16{-3, 300, 32767})
				Send(c, 1, 4, []float32{1.5, -0.25, 3e38})
				Send(c, 1, 8, []float64{-1e-300, 2.5, 1e300})
				Send(c, 1, 16, []complex128{complex(1, -2), complex(0.5, 1e-9)})
				Send(c, 1, 12, []pod12{{1.25, -7, 9, [2]uint8{1, 2}}, {-0.5, 8, 65535, [2]uint8{3, 4}}})
				Send(c, 1, 0, []complex128{})
				return
			}
			if got := Recv[uint8](c, 0, 1); len(got) != 3 || got[1] != 254 || got[2] != 7 {
				t.Errorf("1-byte elements: %v", got)
			}
			if got := Recv[int16](c, 0, 2); len(got) != 3 || got[0] != -3 || got[2] != 32767 {
				t.Errorf("2-byte elements: %v", got)
			}
			if got := Recv[float32](c, 0, 4); len(got) != 3 || got[1] != -0.25 || got[2] != 3e38 {
				t.Errorf("4-byte elements: %v", got)
			}
			if got := Recv[float64](c, 0, 8); len(got) != 3 || got[0] != -1e-300 || got[2] != 1e300 {
				t.Errorf("8-byte elements: %v", got)
			}
			if got := Recv[complex128](c, 0, 16); len(got) != 2 || got[0] != complex(1, -2) || got[1] != complex(0.5, 1e-9) {
				t.Errorf("16-byte elements: %v", got)
			}
			if got := Recv[pod12](c, 0, 12); len(got) != 2 ||
				got[0] != (pod12{1.25, -7, 9, [2]uint8{1, 2}}) || got[1] != (pod12{-0.5, 8, 65535, [2]uint8{3, 4}}) {
				t.Errorf("12-byte struct elements: %+v", got)
			}
			if got := Recv[complex128](c, 0, 0); got == nil || len(got) != 0 {
				t.Errorf("empty message arrived as %#v", got)
			}
		})
	}},

	{"RecvOwnsPayload", func(t *testing.T, tc transportCase) {
		// The received slice belongs to the receiver: writing into it
		// reaches neither the sender's buffer nor a later message on the
		// same envelope.
		mustRun(t, tc, 2, func(c *Comm) {
			if c.Rank() == 0 {
				buf := []float64{1, 2, 3, 4}
				Send(c, 1, 5, buf)
				Recv[int](c, 1, 6) // the receiver has written into its copy
				if buf[0] != 1 || buf[3] != 4 {
					t.Errorf("receiver's write reached the sender's buffer: %v", buf)
				}
				Send(c, 1, 5, buf)
				return
			}
			a := Recv[float64](c, 0, 5)
			for i := range a {
				a[i] = -1
			}
			Send(c, 0, 6, []int{1})
			b := Recv[float64](c, 0, 5)
			if len(b) != 4 || b[0] != 1 || b[3] != 4 {
				t.Errorf("write into the first message reached the second: %v", b)
			}
			if &a[0] == &b[0] {
				t.Errorf("two messages share one buffer")
			}
		})
	}},

	{"LargePayload", func(t *testing.T, tc transportCase) {
		// Larger than the sized socket buffers (sockBufBytes): exercises
		// framing across partial reads/writes and the reader-always-drains
		// property that keeps eager sends deadlock-free.
		const n = 1 << 20
		mustRun(t, tc, 2, func(c *Comm) {
			if c.Rank() == 0 {
				buf := make([]float64, n)
				for i := range buf {
					buf[i] = float64(i) * 0.5
				}
				SendMove(c, 1, 0, buf)
			} else {
				got := Recv[float64](c, 0, 0)
				if len(got) != n || got[n-1] != float64(n-1)*0.5 {
					t.Errorf("len=%d tail=%v", len(got), got[len(got)-1])
				}
			}
		})
	}},

	{"Barrier", func(t *testing.T, tc transportCase) {
		for _, p := range []int{1, 2, 3, 5} {
			mustRun(t, tc, p, func(c *Comm) {
				for iter := 0; iter < 3; iter++ {
					Barrier(c)
				}
			})
		}
	}},

	{"Bcast", func(t *testing.T, tc transportCase) {
		for _, p := range []int{1, 3, 4, 7} {
			for root := 0; root < p; root += 2 {
				mustRun(t, tc, p, func(c *Comm) {
					var buf []int
					if c.Rank() == root {
						buf = []int{42, root}
					}
					got := Bcast(c, root, buf)
					if got[0] != 42 || got[1] != root {
						t.Errorf("p=%d root=%d rank=%d got %v", p, root, c.Rank(), got)
					}
				})
			}
		}
	}},

	{"AllReduce", func(t *testing.T, tc transportCase) {
		for _, p := range []int{1, 2, 3, 4, 5, 7} {
			want := int64(p * (p - 1) / 2)
			mustRun(t, tc, p, func(c *Comm) {
				buf := []int64{int64(c.Rank()), 1}
				a := AllReduce(c, buf, SumI64)
				if a[0] != want || a[1] != int64(p) {
					t.Errorf("p=%d rank=%d AllReduce got %v", p, c.Rank(), a)
				}
			})
		}
	}},

	{"AllReduceMinMax", func(t *testing.T, tc transportCase) {
		mustRun(t, tc, 5, func(c *Comm) {
			v := float64(c.Rank()*c.Rank()) - 3
			mx := AllReduce(c, []float64{v}, MaxF64)
			mn := AllReduce(c, []float64{v}, MinF64)
			if mx[0] != 13 || mn[0] != -3 {
				t.Errorf("minmax wrong: %v %v", mx, mn)
			}
		})
	}},

	{"Gather", func(t *testing.T, tc transportCase) {
		for _, p := range []int{1, 3, 4} {
			mustRun(t, tc, p, func(c *Comm) {
				// Variable-length gather: rank r contributes r+1 copies of r.
				buf := make([]int, c.Rank()+1)
				for i := range buf {
					buf[i] = c.Rank()
				}
				g := Gather(c, 0, buf)
				if c.Rank() == 0 {
					want := 0
					for r := 0; r < p; r++ {
						want += r + 1
					}
					if len(g) != want {
						t.Errorf("gather length %d want %d", len(g), want)
					}
					idx := 0
					for r := 0; r < p; r++ {
						for i := 0; i <= r; i++ {
							if g[idx] != r {
								t.Errorf("gather[%d]=%d want %d", idx, g[idx], r)
							}
							idx++
						}
					}
				}
			})
		}
	}},

	{"AllGather", func(t *testing.T, tc transportCase) {
		mustRun(t, tc, 4, func(c *Comm) {
			g := AllGather(c, []int{c.Rank() + 100})
			for r := 0; r < 4; r++ {
				if g[r] != r+100 {
					t.Errorf("allgather[%d]=%d", r, g[r])
				}
			}
		})
	}},

	{"AllToAll", func(t *testing.T, tc transportCase) {
		for _, p := range []int{1, 2, 5} {
			mustRun(t, tc, p, func(c *Comm) {
				me := c.Rank()
				send := make([][]int, p)
				for r := 0; r < p; r++ {
					// Variable lengths: me+r elements of value me*100+r.
					send[r] = make([]int, me+r)
					for i := range send[r] {
						send[r][i] = me*100 + r
					}
				}
				got := AllToAll(c, send)
				for r := 0; r < p; r++ {
					if len(got[r]) != r+me {
						t.Errorf("p=%d me=%d from %d: len %d want %d", p, me, r, len(got[r]), r+me)
					}
					for _, v := range got[r] {
						if v != r*100+me {
							t.Errorf("p=%d me=%d from %d: value %d", p, me, r, v)
						}
					}
				}
			})
		}
	}},

	{"AllOKAgreement", func(t *testing.T, tc transportCase) {
		mustRun(t, tc, 4, func(c *Comm) {
			if !AllOK(c, true) {
				t.Errorf("rank %d: all-true AllOK returned false", c.Rank())
			}
			// One rank's local failure becomes one consistent outcome.
			if AllOK(c, c.Rank() != 2) {
				t.Errorf("rank %d: AllOK with a failing rank returned true", c.Rank())
			}
			// The world must remain usable after a false agreement.
			sum := AllReduce(c, []int{1}, SumInt)
			if sum[0] != 4 {
				t.Errorf("post-AllOK collective broken: %v", sum)
			}
		})
	}},

	{"Split", func(t *testing.T, tc transportCase) {
		mustRun(t, tc, 6, func(c *Comm) {
			// Split into evens and odds; key reverses order within odds.
			color := c.Rank() % 2
			key := c.Rank()
			if color == 1 {
				key = -c.Rank()
			}
			sub := c.Split(color, key)
			if sub.Size() != 3 {
				t.Errorf("sub size %d", sub.Size())
			}
			// Messages in sub must not leak into world context.
			g := AllGather(sub, []int{c.Rank()})
			if color == 0 {
				if g[0] != 0 || g[1] != 2 || g[2] != 4 {
					t.Errorf("even group order %v", g)
				}
			} else {
				if g[0] != 5 || g[1] != 3 || g[2] != 1 {
					t.Errorf("odd group order (reversed by key) %v", g)
				}
			}
			// A second collective in the parent must still work.
			sum := AllReduce(c, []int{1}, SumInt)
			if sum[0] != 6 {
				t.Errorf("parent allreduce after split: %v", sum)
			}
		})
	}},

	{"SplitNegativeColor", func(t *testing.T, tc transportCase) {
		mustRun(t, tc, 4, func(c *Comm) {
			color := 0
			if c.Rank() == 3 {
				color = -1
			}
			sub := c.Split(color, c.Rank())
			if c.Rank() == 3 {
				if sub != nil {
					t.Error("negative color should return nil comm")
				}
				return
			}
			if sub.Size() != 3 {
				t.Errorf("sub size %d", sub.Size())
			}
		})
	}},

	{"NestedSplit", func(t *testing.T, tc transportCase) {
		// 8 ranks on a 2x2x2 grid (last coordinate fastest); the lines
		// along dims 0 and 2 are split off independently of each other.
		mustRun(t, tc, 8, func(c *Comm) {
			me := c.Rank()
			co := [3]int{me / 4, me / 2 % 2, me % 2}
			rows := c.Split(co[1]*2+co[2], co[0])
			cols := c.Split(co[0]*2+co[1], co[2])
			if rows.Size() != 2 || cols.Size() != 2 {
				t.Errorf("sub sizes %d %d", rows.Size(), cols.Size())
				return
			}
			r := AllReduce(rows, []int{co[0]}, SumInt)
			if r[0] != 1 { // coords 0+1 along dim 0
				t.Errorf("row reduce %v", r)
			}
			z := AllReduce(cols, []int{co[2]}, SumInt)
			if z[0] != 1 {
				t.Errorf("col reduce %v", z)
			}
		})
	}},

	{"SameEnvelopeFIFO", func(t *testing.T, tc transportCase) {
		// Messages on one (source, tag) envelope are received in send order
		// — the property every exchange plan's End relies on. A connection
		// preserves byte order, so the wire keeps the guarantee the inproc
		// mailbox gives. The receiver first takes a later message on another
		// tag, so all eight are queued before the first Recv matches.
		mustRun(t, tc, 2, func(c *Comm) {
			if c.Rank() == 0 {
				for i := 1; i <= 8; i++ {
					Send(c, 1, 5, []int{i})
				}
				Send(c, 1, 6, []byte{1})
			} else {
				Recv[byte](c, 0, 6)
				for i := 1; i <= 8; i++ {
					if got := Recv[int](c, 0, 5); got[0] != i {
						t.Errorf("message %d got %v", i, got)
					}
				}
			}
		})
	}},

	{"WaitAllMixedTags", func(t *testing.T, tc transportCase) {
		// Rank 0 collects one message from every peer, each on its own tag,
		// in the reverse of rank order: a receive matches its own source
		// and tag whatever else is queued.
		const p = 5
		mustRun(t, tc, p, func(c *Comm) {
			me := c.Rank()
			if me == 0 {
				for r := p - 1; r >= 1; r-- {
					if got := Recv[int](c, r, 100+r); len(got) != 1 || got[0] != r*r {
						t.Errorf("from %d: got %v", r, got)
					}
				}
			} else {
				Send(c, 0, 100+me, []int{me * me})
			}
		})
	}},

	{"PanicPropagates", func(t *testing.T, tc transportCase) {
		err := tc.run(3, func(c *Comm) {
			if c.Rank() == 1 {
				panic("boom")
			}
			// Other ranks block forever; abort must release them.
			Recv[int](c, AnySource, 0)
		})
		if err == nil {
			t.Fatal("expected error from panicking rank")
		}
		if !strings.Contains(err.Error(), "rank 1") {
			t.Fatalf("error does not identify the failing rank: %v", err)
		}
	}},

	{"AbortClassification", func(t *testing.T, tc transportCase) {
		// Every rank — the aborter and its blocked peers — must surface an
		// *AbortError, and the peers' reason must name the causing rank. Over
		// the wire the reason travels in an abort frame.
		errs := make(chan error, 4)
		_ = tc.run(4, func(c *Comm) {
			defer func() {
				if p := recover(); p != nil {
					if e, ok := p.(error); ok {
						errs <- e
					}
					panic(p) // keep the world's accounting intact
				}
			}()
			if c.Rank() == 3 {
				c.Abort("disk on fire")
				return
			}
			Recv[byte](c, 3, 7) // never sent
		})
		close(errs)
		var aborts int
		for e := range errs {
			var ae *AbortError
			if errors.As(e, &ae) {
				aborts++
				if ae.Rank == 3 {
					if ae.Reason != "disk on fire" {
						t.Fatalf("aborting rank's reason %q", ae.Reason)
					}
				} else if !strings.Contains(ae.Reason, "rank 3") {
					t.Fatalf("peer abort reason %q does not name the cause", ae.Reason)
				}
			}
		}
		if aborts != 4 {
			t.Fatalf("%d ranks surfaced *AbortError, want 4", aborts)
		}
	}},

	{"TimeoutClassification", func(t *testing.T, tc transportCase) {
		// A peer that stops sending without dying is detected by the
		// per-operation timeout as a *TimeoutError — identically on every
		// transport, so the supervisor's hang classification is
		// transport-independent.
		err := tc.run(2, func(c *Comm) {
			c.World().SetTimeout(200 * time.Millisecond)
			if c.Rank() == 0 {
				Recv[byte](c, 1, 9) // never sent
			}
			// Rank 1 returns immediately without sending.
		})
		if err == nil {
			t.Fatal("expected timeout error")
		}
		var te *TimeoutError
		if !errors.As(err, &te) {
			t.Fatalf("want *TimeoutError in chain, got %v", err)
		}
	}},

	{"DroppedSendParity", func(t *testing.T, tc transportCase) {
		// The fault injector's Drop verb must eat the message before it
		// reaches either the mailbox or the socket: the send-side hook fires
		// identically on the local and wire paths.
		fault.Arm(fault.MustParse("drop send rank 0 once"))
		defer fault.Disarm()
		mustRun(t, tc, 2, func(c *Comm) {
			if c.Rank() == 0 {
				Send(c, 1, 1, []byte{1}) // dropped
				Send(c, 1, 2, []byte{2}) // delivered
			} else {
				got := Recv[byte](c, 0, 2)
				if len(got) != 1 || got[0] != 2 {
					panic("wrong message delivered")
				}
				w := c.World()
				defer w.SetTimeout(w.Timeout())
				w.SetTimeout(50 * time.Millisecond)
				defer func() {
					var te *TimeoutError
					if e, ok := recover().(error); !ok || !errors.As(e, &te) || te.Tag != 1 {
						t.Errorf("receive of the dropped message: want *TimeoutError for tag 1, got %v", e)
					}
				}()
				Recv[byte](c, 0, 1)
				t.Error("dropped message was delivered")
			}
		})
	}},

	{"CommStatsAccounting", func(t *testing.T, tc transportCase) {
		// Exact per-rank send accounting: 10 float64 = 80 payload bytes in
		// one message. Over a wire transport the same message is also counted
		// as wire traffic, whose framing overhead is exactly FrameHeaderSize
		// bytes — the pinned frame-overhead contract.
		mustRun(t, tc, 2, func(c *Comm) {
			if c.Rank() == 0 {
				Send(c, 1, 0, make([]float64, 10))
				st := c.Stats()
				if st.Msgs != 1 || st.Bytes != 80 {
					t.Errorf("stats %+v, want 1 msg / 80 bytes", st)
				}
				wantWire := int64(0)
				if tc.name != "inproc" {
					wantWire = 1
				}
				if st.WireMsgs != wantWire || st.WireBytes != wantWire*80 {
					t.Errorf("%s: wire stats %+v, want %d wire msgs", tc.name, st, wantWire)
				}
			} else {
				Recv[float64](c, 0, 0)
				st := c.Stats()
				if st.Msgs != 0 {
					t.Errorf("receiver accounted sends: %+v", st)
				}
			}
		})
	}},
}
