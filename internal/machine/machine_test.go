package machine

import (
	"math"
	"testing"
	"time"
)

func TestFFTFlops(t *testing.T) {
	if f := FFTFlops(1024, 1); math.Abs(f-5*1024*10) > 1e-9 {
		t.Errorf("FFTFlops(1024)=%g", f)
	}
	if f := FFTFlops(1, 100); f != 0 {
		t.Errorf("length-1 FFT should cost nothing, got %g", f)
	}
	// 3-D: three passes of n² batched transforms.
	if f := FFT3Flops(64); math.Abs(f-3*5*64*6*64*64) > 1e-6 {
		t.Errorf("FFT3Flops(64)=%g", f)
	}
}

func TestCountersFlops(t *testing.T) {
	c := Counters{KernelInteractions: 1000, FFT3D: 2, FFTGridN: 32, CICOps: 10}
	want := 1000*FlopsPerInteraction + 2*FFT3Flops(32) + 10*FlopsPerCIC
	if got := c.Flops(); math.Abs(got-want) > 1e-9 {
		t.Errorf("Flops=%g want %g", got, want)
	}
	var d Counters
	d.Add(c)
	d.Add(c)
	if d.KernelInteractions != 2000 || d.FFT3D != 4 || d.FFTGridN != 32 {
		t.Errorf("Add broken: %+v", d)
	}
}

func TestProjection(t *testing.T) {
	// 96 racks = 98304 nodes: the paper's 13.94 PFlops at 69.2%.
	tf, pct := ProjectedBGQ(96 * 1024)
	if math.Abs(tf-13940) > 100 {
		t.Errorf("96-rack projection %g TFlops, want ≈13940", tf)
	}
	if math.Abs(pct-69.2) > 0.1 {
		t.Errorf("peak pct %g", pct)
	}
	d := BGQTimePerSubstep(1e15, 96*1024)
	if d <= 0 || d > time.Minute {
		t.Errorf("substep projection %v", d)
	}
}

// TestCounterCheckpointWords pins the checkpoint counter-block contract:
// Encode/Decode round-trip exactly, and MergeRestored folds adopted blocks
// with per-rank sums adding while the global transform count and grid
// parameter are kept, not summed.
func TestCounterCheckpointWords(t *testing.T) {
	orig := Counters{
		KernelInteractions: 123456, FFT3D: 48, FFTGridN: 256, CICOps: 7890,
		Restarts: 2, CkptRetries: 3, CkptQuarantined: 1,
		WalkNodes: 5555, Rebalances: 4,
	}
	w := make([]int64, CounterWords)
	orig.Encode(w)
	var back Counters
	back.Decode(w)
	if back != orig {
		t.Fatalf("Decode(Encode(c)) = %+v, want %+v", back, orig)
	}
	// Word 9 is retired: written as 0, and a nonzero value left there by an
	// older writer is ignored on read.
	if w[9] != 0 {
		t.Fatalf("retired word 9 = %d, want 0", w[9])
	}
	w[9] = 77
	back = Counters{}
	back.Decode(w)
	if back != orig {
		t.Fatalf("Decode with retired word set = %+v, want %+v", back, orig)
	}
	// A reader rank adopting two writer blocks: additive fields (per-rank
	// partial work: interactions, CIC, walk nodes) sum; FFT3D, FFTGridN, the
	// resilience counters, and the balancing event counters (identical or
	// per-schedule on every writer rank) are kept once.
	w2 := make([]int64, CounterWords)
	(&Counters{
		KernelInteractions: 1000, FFT3D: 48, FFTGridN: 256, CICOps: 10,
		Restarts: 2, CkptRetries: 3, CkptQuarantined: 1,
		WalkNodes: 45, Rebalances: 4,
	}).Encode(w2)
	var merged Counters
	merged.MergeRestored(w)
	merged.MergeRestored(w2)
	want := Counters{
		KernelInteractions: 124456, FFT3D: 48, FFTGridN: 256, CICOps: 7900,
		Restarts: 2, CkptRetries: 3, CkptQuarantined: 1,
		WalkNodes: 5600, Rebalances: 4,
	}
	if merged != want {
		t.Fatalf("merged = %+v, want %+v", merged, want)
	}
	// The resilience counters are campaign health, not modeled work.
	withR := Counters{KernelInteractions: 100, Restarts: 50, CkptRetries: 50, CkptQuarantined: 50}
	noR := Counters{KernelInteractions: 100}
	if withR.Flops() != noR.Flops() {
		t.Fatalf("resilience counters leak into Flops: %g != %g", withR.Flops(), noR.Flops())
	}
}
