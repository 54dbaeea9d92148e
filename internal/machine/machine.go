package machine

import (
	"math"
	"time"
)

// BG/Q hardware constants (paper §III).
const (
	PeakGFlopsPerNode = 204.8 // 16 cores × 12.8 GFlops
	CoresPerNode      = 16
	ThreadsPerCore    = 4
	// The QPX kernel executes 26 instructions per 4-wide vector iteration,
	// 16 of them FMAs: 168 flops per iteration, i.e. 42 flops per pair
	// interaction.
	FlopsPerInteraction = 42.0
	// Paper-reported sustained fraction of peak for the full code.
	SustainedPeakFraction = 0.692
	// CIC deposit or interpolation cost per particle per field.
	FlopsPerCIC = 27.0
)

// FFTFlops returns the standard 5·N·log2(N) operation count for a complex
// 1-D transform of length n, times the batch count.
func FFTFlops(n int, batches int) float64 {
	if n <= 1 {
		return 0
	}
	return 5 * float64(n) * math.Log2(float64(n)) * float64(batches)
}

// FFT3Flops returns the flop count of one 3-D transform of an n³ grid.
func FFT3Flops(n int) float64 {
	return 3 * FFTFlops(n, n*n)
}

// Counters accumulates countable work; safe for single-goroutine use per
// rank, then reduced by the caller.
type Counters struct {
	KernelInteractions int64
	// FFT3D counts complex 3-D transform equivalents: a real-to-complex or
	// complex-to-real transform exploits Hermitian symmetry and counts ½,
	// so the production r2c Poisson solve (1 forward + 3 inverses) adds 2.
	FFT3D    int64
	FFTGridN int   // grid size per transform
	CICOps   int64 // particle·field deposit/interp operations

	// Resilience accounting (PR 6). These are campaign-health metrics, not
	// flop sources: Flops ignores them. Restarts counts supervised
	// resume-from-checkpoint cycles; CkptRetries counts checkpoint write
	// attempts that failed and were retried; CkptQuarantined counts damaged
	// checkpoint directories moved out of the resume path.
	Restarts        int64
	CkptRetries     int64
	CkptQuarantined int64

	// Load-balancing accounting (PR 8). WalkNodes counts tree-walk node
	// visits — the balancer's "walk time" term, a deterministic stand-in for
	// wall-clock. Rebalances counts cost-driven domain-geometry rebuilds (a
	// collective event). Neither is a flop source.
	WalkNodes  int64
	Rebalances int64

	// Communication accounting (PR 9). Per-rank message/byte totals from the
	// mpi runtime, merged across ranks via a collective at report time —
	// never through shared memory, since ranks may live in different OS
	// processes. MsgsSent/BytesSent count every logical mpi message and its
	// payload bytes; WireMsgs/WireBytes are the subset that actually crossed
	// a socket (framing overhead is derived from WireMsgs, not counted
	// here). Session metrics, not flop sources: excluded from Encode/Decode
	// (checkpoints) and from Flops.
	MsgsSent  int64
	BytesSent int64
	WireMsgs  int64
	WireBytes int64
}

// Flops converts the counters to a total flop count under the model.
func (c *Counters) Flops() float64 {
	return float64(c.KernelInteractions)*FlopsPerInteraction +
		float64(c.FFT3D)*FFT3Flops(c.FFTGridN) +
		float64(c.CICOps)*FlopsPerCIC
}

// Add merges another counter set.
func (c *Counters) Add(o Counters) {
	c.KernelInteractions += o.KernelInteractions
	c.FFT3D += o.FFT3D
	if o.FFTGridN != 0 {
		c.FFTGridN = o.FFTGridN
	}
	c.CICOps += o.CICOps
	c.Restarts += o.Restarts
	c.CkptRetries += o.CkptRetries
	c.CkptQuarantined += o.CkptQuarantined
	c.WalkNodes += o.WalkNodes
	c.Rebalances += o.Rebalances
	c.MsgsSent += o.MsgsSent
	c.BytesSent += o.BytesSent
	c.WireMsgs += o.WireMsgs
	c.WireBytes += o.WireBytes
}

// CounterWords is the number of int64 words Encode packs — the per-rank
// counter block a checkpoint stores for each rank. Word 9 is retired (it
// held a leaf-stealing diagnostic): Encode writes 0 there and readers
// ignore it, so the block size and checkpoint format are unchanged.
const CounterWords = 10

// Encode packs the counters into the first CounterWords entries of w, for
// checkpointing. Decode inverts it; MergeRestored folds blocks adopted from
// other ranks when a checkpoint is restored at a different rank count.
func (c *Counters) Encode(w []int64) {
	w[0] = c.KernelInteractions
	w[1] = c.FFT3D
	w[2] = int64(c.FFTGridN)
	w[3] = c.CICOps
	w[4] = c.Restarts
	w[5] = c.CkptRetries
	w[6] = c.CkptQuarantined
	w[7] = c.WalkNodes
	w[8] = c.Rebalances
	w[9] = 0
}

// Decode replaces the counters with an encoded block.
func (c *Counters) Decode(w []int64) {
	c.KernelInteractions = w[0]
	c.FFT3D = w[1]
	c.FFTGridN = int(w[2])
	c.CICOps = w[3]
	c.Restarts = w[4]
	c.CkptRetries = w[5]
	c.CkptQuarantined = w[6]
	c.WalkNodes = w[7]
	c.Rebalances = w[8]
}

// MergeRestored folds a counter block adopted from another rank's
// checkpoint data into c. KernelInteractions and CICOps are per-rank
// partial sums of global totals, so they add; FFT3D counts global
// transforms that every rank participated in (each rank's value is the
// same), so it is kept rather than summed — summing would inflate it by
// the number of adopted blocks; FFTGridN is a parameter, not a count.
// The resilience counters record collective events (a restart resumes the
// whole world, a checkpoint retry is agreed by every rank), so like FFT3D
// they are kept-if-zero rather than summed.
func (c *Counters) MergeRestored(w []int64) {
	c.KernelInteractions += w[0]
	if c.FFT3D == 0 {
		c.FFT3D = w[1]
	}
	if c.FFTGridN == 0 {
		c.FFTGridN = int(w[2])
	}
	c.CICOps += w[3]
	if c.Restarts == 0 {
		c.Restarts = w[4]
	}
	if c.CkptRetries == 0 {
		c.CkptRetries = w[5]
	}
	if c.CkptQuarantined == 0 {
		c.CkptQuarantined = w[6]
	}
	// WalkNodes is per-rank partial work like KernelInteractions: it adds.
	c.WalkNodes += w[7]
	// Rebalances records collective geometry rebuilds (every rank counts the
	// same event), so it keeps-once like the resilience counters.
	if c.Rebalances == 0 {
		c.Rebalances = w[8]
	}
}

// ProjectedBGQ returns the sustained TFlops and %-of-peak that `nodes` BG/Q
// nodes deliver under the paper's measured efficiency. This is the model
// behind the paper-shaped "PFlops" column of the Table II/III benches; the
// measured quantities (our wall-clock scaling, counted flops) are reported
// alongside it by the harness.
func ProjectedBGQ(nodes int) (tflops float64, peakPct float64) {
	peak := PeakGFlopsPerNode * 1e9 * float64(nodes)
	return peak * SustainedPeakFraction / 1e12, SustainedPeakFraction * 100
}

// BGQTimePerSubstep converts counted flops into the wall-clock one substep
// would take on `nodes` BG/Q nodes at the sustained rate — the model for
// the paper's time/substep/particle column.
func BGQTimePerSubstep(flops float64, nodes int) time.Duration {
	rate := PeakGFlopsPerNode * 1e9 * float64(nodes) * SustainedPeakFraction
	return time.Duration(flops / rate * float64(time.Second))
}

// CommPost and CommWait are the names of the obs.SpanCommPost (pack + post)
// and obs.SpanCommWait (exposed wait + unpack) phases, for callers that
// read phases by name.
const (
	CommPost = "commpost"
	CommWait = "commwait"
)
