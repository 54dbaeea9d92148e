package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// the program: name, start, end, and the span that caused it. Spans of one
// workload share the recorder's workload name as identifier.
type span struct {
	Name   string
	Parent int // index of the enclosing span, -1 at the root
	Start  time.Duration
	End    time.Duration
}

// recorder keeps spans in memory and writes them out when the workload ends.
// Only the measuring rank (rank 0) records, so it needs no lock. A nil
// recorder is the "tracing off" state: begin and end do nothing.
type recorder struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, len(r.spans))
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: time.Since(r.t0)})
}

func (r *recorder) end() {
	if r == nil {
		return
	}
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].End = time.Since(r.t0)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// loadable in chrome://tracing and Perfetto. The causing span rides in args
// because the format itself nests by time only.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func (r *recorder) writeChrome(path string) error {
	events := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		events[i] = chromeEvent{
			Name: s.Name, Cat: r.workload, Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.Parent, "workload": r.workload},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

// checkNesting reports the first span that is still open, ends before it
// starts, or is not contained in its parent.
func (r *recorder) checkNesting() error {
	if len(r.open) != 0 {
		return fmt.Errorf("%d spans still open", len(r.open))
	}
	for i, s := range r.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d %q names a later parent %d", i, s.Name, s.Parent)
		}
		p := r.spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q is not inside its parent %q", i, s.Name, p.Name)
		}
	}
	return nil
}
