package bench

// Observability acceptance tests (ISSUE 10): a real 4-rank wire run with
// tracing armed must leave a loadable Chrome trace timeline per rank, a
// JSONL journal covering every step, and a collectively-merged wire-latency
// column in the phase-split report — and the reports must never print NaN,
// even for degenerate runs that recorded nothing.

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"hacc/internal/core"
	"hacc/internal/mpi"
	"hacc/internal/obs"
	"hacc/internal/shortrange"
)

// PrintPhaseSplit and PrintFullTable on a zero-value result (no substeps,
// no interactions, no busy time): every would-be division prints "--", and
// no NaN or Inf ever reaches the report.
func TestPrintReportsDegenerateRun(t *testing.T) {
	var r FullResult
	r.Ranks = 2
	var sb strings.Builder
	PrintPhaseSplit(&sb, r)
	PrintFullTable(&sb, []FullResult{r}, 1024)
	out := sb.String()
	for _, bad := range []string{"NaN", "Inf", "nan", "inf"} {
		if strings.Contains(out, bad) {
			t.Errorf("degenerate report contains %q:\n%s", bad, out)
		}
	}
	if !strings.Contains(out, "--") {
		t.Errorf("degenerate report has no -- placeholders:\n%s", out)
	}
	if !strings.Contains(out, "wire latency: --") {
		t.Errorf("zero-count run should report wire latency as --:\n%s", out)
	}
}

// chromeTrace mirrors the emitted Chrome trace container for validation.
type chromeTrace struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	} `json:"traceEvents"`
	Dropped int64 `json:"droppedSpans"`
}

// The ISSUE 10 acceptance bar, verified end to end rather than sampled: a
// 4-rank wire (TCP loopback) run with tracing armed produces a valid Chrome
// trace JSON per rank (pid == rank on every event), a journal whose step
// records cover every step on every rank, and a wire-latency summary with a
// real merged count feeding the PrintPhaseSplit latency column.
func TestWireObservabilityIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step wire simulation; skipped under -short (race CI)")
	}
	const ranks = 4
	dir := t.TempDir()
	defer obs.DisarmTracing()

	cfg := core.Config{
		NGrid: 12, NParticles: 12, BoxMpc: 96,
		ZInit: 24, ZFinal: 10, Steps: 2, SubCycles: 2,
		Solver: core.PPTreePM, Seed: 7,
		TraceDir: dir,
	}
	var lat mpi.WireLatency
	err := mpi.RunWire(ranks, mpi.WireOptions{Transport: "tcp", Timeout: 60 * time.Second},
		func(c *mpi.Comm) {
			s, err := core.New(c, cfg)
			if err != nil {
				panic(err)
			}
			if err := s.Run(nil); err != nil {
				panic(err)
			}
			l := mpi.WireLatencySummary(c) // collective
			if c.Rank() == 0 {
				lat = l
			}
		})
	if err != nil {
		t.Fatal(err)
	}

	// Every rank's timeline: valid JSON, correct pid, the expected span mix.
	for rank := 0; rank < ranks; rank++ {
		raw, err := os.ReadFile(obs.TracePath(dir, rank))
		if err != nil {
			t.Fatalf("rank %d trace missing: %v", rank, err)
		}
		if !json.Valid(raw) {
			t.Fatalf("rank %d trace is not valid JSON", rank)
		}
		var tr chromeTrace
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatalf("rank %d trace: %v", rank, err)
		}
		if len(tr.TraceEvents) == 0 {
			t.Fatalf("rank %d trace has no events", rank)
		}
		steps, walks := 0, 0
		for _, ev := range tr.TraceEvents {
			if ev.Name == "" || (ev.Ph != "X" && ev.Ph != "M") {
				t.Fatalf("rank %d: malformed event %+v", rank, ev)
			}
			if ev.Pid != rank {
				t.Fatalf("rank %d: event %q has pid %d", rank, ev.Name, ev.Pid)
			}
			if ev.Ph == "X" && ev.Dur < 0 {
				t.Fatalf("rank %d: event %q has negative duration", rank, ev.Name)
			}
			switch ev.Name {
			case "step":
				steps++
			case "walk":
				walks++
			}
		}
		if steps != cfg.Steps {
			t.Errorf("rank %d trace has %d step spans, want %d", rank, steps, cfg.Steps)
		}
		if walks == 0 {
			t.Errorf("rank %d trace has no walk spans", rank)
		}
		if tr.Dropped != 0 {
			t.Errorf("rank %d dropped %d spans in a tiny run", rank, tr.Dropped)
		}
	}

	// Every rank's journal: parseable JSONL headed by a run record naming
	// the kernel body, with a step record per step.
	for rank := 0; rank < ranks; rank++ {
		f, err := os.Open(obs.JournalPath(dir, rank))
		if err != nil {
			t.Fatalf("rank %d journal missing: %v", rank, err)
		}
		steps := map[int]bool{}
		sc := bufio.NewScanner(f)
		for line := 0; sc.Scan(); line++ {
			var rec struct {
				Kind      string `json:"kind"`
				Step      int    `json:"step"`
				KernelISA string `json:"kernel_isa"`
			}
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("rank %d journal line %q: %v", rank, sc.Text(), err)
			}
			if line == 0 && (rec.Kind != "run" || rec.KernelISA != shortrange.KernelISA()) {
				t.Errorf("rank %d journal opens with %q, want a run record with kernel_isa %q",
					rank, sc.Text(), shortrange.KernelISA())
			}
			if rec.Kind == "step" {
				steps[rec.Step] = true
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= cfg.Steps; i++ {
			if !steps[i] {
				t.Errorf("rank %d journal missing step %d", rank, i)
			}
		}
	}

	// The merged latency summary: a 4-rank wire run exchanges thousands of
	// frames; the collective merge must see them, and quantiles must order.
	if lat.Count == 0 {
		t.Fatal("wire run merged zero latency samples")
	}
	if lat.P50Ns <= 0 || lat.P99Ns < lat.P50Ns {
		t.Errorf("bad latency quantiles: %+v", lat)
	}
	r := FullResult{WireLatCount: lat.Count, WireLatP50Ns: lat.P50Ns, WireLatP99Ns: lat.P99Ns}
	var sb strings.Builder
	PrintPhaseSplit(&sb, r)
	if !strings.Contains(sb.String(), "wire latency:") || strings.Contains(sb.String(), "wire latency: --") {
		t.Errorf("phase split did not render the latency column:\n%s", sb.String())
	}
}
