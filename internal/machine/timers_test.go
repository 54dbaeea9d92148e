package machine

import (
	"sync"
	"testing"
	"time"
)

// Unentered phases must read as zero everywhere, not as missing keys or NaN
// fractions — the phase report renders timers for phases a configuration
// never runs (no FFT on a tree-only run, no rebalance with balancing off).
func TestTimersUnenteredPhases(t *testing.T) {
	tm := NewTimers()
	if post, wait := tm.CommSplit(); post != 0 || wait != 0 {
		t.Fatalf("empty CommSplit = %v, %v; want 0, 0", post, wait)
	}
	if got := tm.Busy(); got != 0 {
		t.Fatalf("empty Busy = %v, want 0", got)
	}
	if got := tm.Total(); got != 0 {
		t.Fatalf("empty Total = %v, want 0", got)
	}
	if fr := tm.Fractions(); len(fr) != 0 {
		t.Fatalf("empty Fractions = %v, want none", fr)
	}

	// One entered phase: the others still read zero, fractions sum to 1.
	tm.Add("kernel", time.Second)
	if post, wait := tm.CommSplit(); post != 0 || wait != 0 {
		t.Fatalf("CommSplit with only kernel time = %v, %v; want 0, 0", post, wait)
	}
	fr := tm.Fractions()
	if len(fr) != 1 || fr[0].Name != "kernel" || fr[0].Fraction != 1 {
		t.Fatalf("Fractions = %+v, want kernel at 1.0", fr)
	}
}

// Concurrent Add into one timer set must be exact under -race.
func TestTimersConcurrentAdd(t *testing.T) {
	const workers = 8
	total := NewTimers()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				total.Add("kernel", time.Microsecond)
				total.Add(CommWait, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	want := time.Duration(workers*100) * time.Microsecond
	if got := total.Get("kernel"); got != want {
		t.Fatalf("kernel = %v, want %v", got, want)
	}
	if got := total.Busy(); got != want {
		t.Fatalf("Busy = %v, want %v (commwait excluded)", got, want)
	}
}
