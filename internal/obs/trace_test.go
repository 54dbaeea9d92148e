package obs

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// recordOps are the span recorders the hot paths call: the trace-only
// Begin/End pair and the phase clock's Time and Split, each with a closure
// capturing a local, as core's phase calls do.
func recordOps(p *Phases) []struct {
	name string
	op   func()
} {
	n := 0
	return []struct {
		name string
		op   func()
	}{
		{"Begin/End", func() {
			s := Begin()
			End(0, SpanRecv, s)
			EndWorker(0, 1, SpanWalk, s)
		}},
		{"Phases.Time", func() { p.Time(SpanCIC, func() { n++ }) }},
		{"Phases.Split", func() { p.Split(SpanKernel, SpanWalk, func() float64 { n++; return 0.5 }) }},
	}
}

// The disarmed-cost contract: with no tracer armed, a Begin/End pair and a
// phase-clock interval must not allocate (and Begin must return the 0
// sentinel that short-circuits End). This is the pin that lets the phase
// calls live inside the step loop without disturbing the kernel benchmarks'
// allocs/op.
func TestDisarmedTraceAllocFree(t *testing.T) {
	DisarmTracing()
	if got := Begin(); got != 0 {
		t.Fatalf("disarmed Begin = %d, want 0", got)
	}
	for _, tc := range recordOps(NewPhases(0)) {
		if allocs := testing.AllocsPerRun(1000, tc.op); allocs != 0 {
			t.Errorf("disarmed %s allocates %.1f times per op, want 0", tc.name, allocs)
		}
	}
}

// Armed spans must also record without allocating (the ring is
// preallocated); only Flush pays.
func TestArmedRecordAllocFree(t *testing.T) {
	dir := t.TempDir()
	if err := ArmTracing(dir, 1); err != nil {
		t.Fatal(err)
	}
	defer DisarmTracing()
	for _, tc := range recordOps(NewPhases(0)) {
		if allocs := testing.AllocsPerRun(1000, tc.op); allocs != 0 {
			t.Errorf("armed %s allocates %.1f times per op, want 0", tc.name, allocs)
		}
	}
}

// chromeTrace mirrors the emitted container for validation.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	Dropped int64 `json:"droppedSpans"`
}

func TestTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := ArmTracing(dir, 2); err != nil {
		t.Fatal(err)
	}
	defer DisarmTracing()

	for rank := 0; rank < 2; rank++ {
		for i := 0; i < 5; i++ {
			s := Begin()
			time.Sleep(100 * time.Microsecond)
			End(rank, SpanFFT, s)
		}
		s := Begin()
		EndWorker(rank, 3, SpanWalk, s)
		if err := FlushRank(rank); err != nil {
			t.Fatal(err)
		}
	}

	for rank := 0; rank < 2; rank++ {
		data, err := os.ReadFile(TracePath(dir, rank))
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(data) {
			t.Fatalf("rank %d trace is not valid JSON", rank)
		}
		var tr chromeTrace
		if err := json.Unmarshal(data, &tr); err != nil {
			t.Fatal(err)
		}
		var complete, meta int
		for _, ev := range tr.TraceEvents {
			if ev.Name == "" || ev.Ph == "" {
				t.Fatalf("rank %d event missing required fields: %+v", rank, ev)
			}
			if ev.Pid != rank {
				t.Fatalf("rank %d event carries pid %d", rank, ev.Pid)
			}
			switch ev.Ph {
			case "X":
				complete++
				if ev.Ts <= 0 || ev.Dur < 0 {
					t.Fatalf("rank %d complete event with ts=%g dur=%g", rank, ev.Ts, ev.Dur)
				}
			case "M":
				meta++
			}
		}
		if complete != 6 {
			t.Fatalf("rank %d has %d complete events, want 6", rank, complete)
		}
		if meta < 2 { // process_name + at least one thread_name
			t.Fatalf("rank %d has %d metadata events, want ≥2", rank, meta)
		}
		if tr.Dropped != 0 {
			t.Fatalf("rank %d reports %d dropped spans, want 0", rank, tr.Dropped)
		}
	}
}

// The ring overwrites its oldest spans past capacity and reports the exact
// drop count, rather than growing or silently truncating the recent end.
func TestTraceRingWrap(t *testing.T) {
	dir := t.TempDir()
	if err := ArmTracing(dir, 1); err != nil {
		t.Fatal(err)
	}
	defer DisarmTracing()
	const extra = 10
	for i := 0; i < ringCap+extra; i++ {
		End(0, SpanRecv, 1) // synthetic nonzero start: no sleep needed
	}
	if err := FlushRank(0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(TracePath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped != extra {
		t.Fatalf("dropped = %d, want %d", tr.Dropped, extra)
	}
	var complete int
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
	}
	if complete != ringCap {
		t.Fatalf("kept %d spans, want %d", complete, ringCap)
	}
}

func TestArmTracingIdempotent(t *testing.T) {
	dir := t.TempDir()
	if err := ArmTracing(dir, 1); err != nil {
		t.Fatal(err)
	}
	defer DisarmTracing()
	End(0, SpanStep, 1)
	before := armed.Load()
	if err := ArmTracing(dir, 1); err != nil {
		t.Fatal(err)
	}
	if armed.Load() != before {
		t.Fatal("re-arming with identical (dir, nranks) replaced the tracer")
	}
	if n := before.rings[0].n.Load(); n != 1 {
		t.Fatalf("re-arming lost the recorded span (n=%d)", n)
	}
	other := t.TempDir()
	if err := ArmTracing(other, 1); err != nil {
		t.Fatal(err)
	}
	if armed.Load() == before {
		t.Fatal("arming a different dir kept the stale tracer")
	}
	if got := TraceDir(); got != other {
		t.Fatalf("TraceDir() = %q, want %q", got, other)
	}
}

func TestFlushRankOutOfRange(t *testing.T) {
	if err := ArmTracing(t.TempDir(), 1); err != nil {
		t.Fatal(err)
	}
	defer DisarmTracing()
	if err := FlushRank(5); err == nil {
		t.Fatal("flushing a rank outside the armed world succeeded")
	}
	DisarmTracing()
	if err := FlushRank(0); err != nil {
		t.Fatalf("disarmed FlushRank should be a no-op, got %v", err)
	}
}
