package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// SpanID identifies one instrumented phase. The IDs are small integers
// (only their names leave the process) so a span record is two words of
// payload plus two int64 timestamps — cheap enough to record at sub-cycle
// granularity — and a per-phase sum is one array slot.
type SpanID uint8

// Instrumented phases. Core times the step, kick and leaf phases on its
// phase clock (Phases); the mpi runtime emits SpanRecv around every
// blocking receive and gio emits SpanGioWrite around container writes,
// both into the trace ring only.
const (
	// Enclosing phases: each contains leaf phases, so the phase split does
	// not sum them.
	SpanStep SpanID = iota
	SpanKickLong
	SpanKickShort

	// Leaf phases: the phase split and the journal's per-step phase_ms.
	SpanKernel
	SpanWalk
	SpanBuild
	SpanFFT
	SpanCIC
	SpanCommPost
	SpanCommWait
	SpanStream
	SpanAnalysis
	SpanCheckpoint
	SpanRebalance

	// Trace-only spans.
	SpanRecv
	SpanGioWrite
	numSpans
)

// spanNames is the one phase-name table: trace event names, journal
// phase_ms keys and Phases.Get all read it.
var spanNames = [numSpans]string{
	SpanStep:       "step",
	SpanKickLong:   "kick-long",
	SpanKickShort:  "kick-short",
	SpanKernel:     "kernel",
	SpanWalk:       "walk",
	SpanBuild:      "build",
	SpanFFT:        "fft",
	SpanCIC:        "cic",
	SpanCommPost:   "commpost",
	SpanCommWait:   "commwait",
	SpanStream:     "stream",
	SpanAnalysis:   "analysis",
	SpanCheckpoint: "checkpoint",
	SpanRebalance:  "rebalance",
	SpanRecv:       "recv",
	SpanGioWrite:   "gio-write",
}

// leaf reports whether id is a leaf phase of the phase split.
func (id SpanID) leaf() bool { return id >= SpanKernel && id < SpanRecv }

func (id SpanID) String() string {
	if int(id) < len(spanNames) {
		return spanNames[id]
	}
	return fmt.Sprintf("span(%d)", int(id))
}

// spanRec is one recorded span: wall-clock start and duration in
// nanoseconds, the phase ID, and the worker lane (tid in the emitted
// trace).
type spanRec struct {
	start int64
	dur   int64
	id    uint32
	tid   uint32
}

// ringCap is the per-rank span capacity. At step-loop granularity (tens of
// spans per step) this holds thousands of steps; older spans are
// overwritten and counted as dropped.
const ringCap = 1 << 14

// ring is one rank's span buffer. The cursor is atomic so the drop
// accounting stays exact, but each rank's spans are recorded by that rank's
// own goroutine (single-writer) — the tracer is not a cross-goroutine
// concurrency primitive, it is a per-rank log.
type ring struct {
	n    atomic.Int64 // total spans ever recorded; slot = (n-1) % ringCap
	recs [ringCap]spanRec
}

// Tracer is an armed tracing session: an output directory plus one ring per
// world rank. Arm it with ArmTracing; the zero value is not used.
type Tracer struct {
	dir   string
	rings []*ring
}

// armed is the process-global tracing switch, one atomic load on every
// disarmed Begin/End — the same discipline as fault.Armed.
var armed atomic.Pointer[Tracer]

// ArmTracing arms span tracing for nranks ranks, writing per-rank Chrome
// trace JSON under dir on FlushRank. Re-arming with the same (dir, nranks)
// is a no-op that keeps the existing rings (a supervised in-process restart
// keeps its history); a different dir or rank count installs a fresh
// tracer. Arming is process-global: in a multi-process wire world each rank
// process arms its own tracer and flushes only its own rank.
func ArmTracing(dir string, nranks int) error {
	if dir == "" {
		return fmt.Errorf("obs: trace directory must be non-empty")
	}
	if nranks <= 0 {
		return fmt.Errorf("obs: trace rank count %d must be positive", nranks)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("obs: trace directory: %w", err)
	}
	if t := armed.Load(); t != nil && t.dir == dir && len(t.rings) == nranks {
		return nil
	}
	t := &Tracer{dir: dir, rings: make([]*ring, nranks)}
	for i := range t.rings {
		t.rings[i] = &ring{}
	}
	armed.Store(t)
	return nil
}

// DisarmTracing turns span tracing off and drops the rings.
func DisarmTracing() { armed.Store(nil) }

// TraceArmed reports whether tracing is armed.
func TraceArmed() bool { return armed.Load() != nil }

// TraceDir returns the armed tracer's output directory ("" when disarmed).
func TraceDir() string {
	if t := armed.Load(); t != nil {
		return t.dir
	}
	return ""
}

// Begin starts a span, returning its wall-clock start in nanoseconds — or 0
// when tracing is disarmed, which makes the matching End a no-op. The
// disarmed cost is one atomic load and one branch; no allocation either
// way.
func Begin() int64 {
	if armed.Load() == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// End completes a span started by Begin on the rank's main lane (tid 0). A
// zero start (disarmed Begin, or a caller skipping instrumentation) is a
// no-op.
func End(rank int, id SpanID, start int64) { EndWorker(rank, 0, id, start) }

// EndWorker is End with an explicit worker lane, for spans recorded off the
// rank's main goroutine. Spans for one rank must come from one goroutine at
// a time (per-rank rings are single-writer).
func EndWorker(rank, worker int, id SpanID, start int64) {
	if start == 0 {
		return
	}
	if t := armed.Load(); t != nil {
		t.record(rank, worker, id, start, time.Now().UnixNano()-start)
	}
}

// record writes one span into rank's ring; out-of-range ranks are dropped.
func (t *Tracer) record(rank, worker int, id SpanID, start, dur int64) {
	if rank < 0 || rank >= len(t.rings) {
		return
	}
	r := t.rings[rank]
	slot := (r.n.Add(1) - 1) & (ringCap - 1)
	rec := &r.recs[slot]
	rec.start = start
	rec.dur = dur
	rec.id = uint32(id)
	rec.tid = uint32(worker)
}

// TracePath returns the trace file path for a rank under dir.
func TracePath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("trace.r%03d.json", rank))
}

// traceEvent is one Chrome trace-event JSON object. Complete events
// (ph "X") carry ts/dur in microseconds; metadata events (ph "M") name the
// process and thread lanes.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the Chrome trace-event container format.
type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
	Dropped     int64        `json:"droppedSpans,omitempty"`
}

// FlushRank writes one rank's recorded spans as Chrome trace-event JSON to
// TracePath(dir, rank), overwriting any previous flush (the file always
// holds the full ring). Call it from the rank's own goroutine after the
// instrumented work quiesces. A no-op returning nil when tracing is
// disarmed.
func FlushRank(rank int) error {
	t := armed.Load()
	if t == nil {
		return nil
	}
	if rank < 0 || rank >= len(t.rings) {
		return fmt.Errorf("obs: flush of rank %d outside armed world [0,%d)", rank, len(t.rings))
	}
	r := t.rings[rank]
	total := r.n.Load()
	kept := total
	if kept > ringCap {
		kept = ringCap
	}
	tf := traceFile{TraceEvents: make([]traceEvent, 0, kept+8), Dropped: total - kept}
	tf.TraceEvents = append(tf.TraceEvents, traceEvent{
		Name: "process_name", Ph: "M", Pid: rank,
		Args: map[string]any{"name": fmt.Sprintf("rank %d", rank)},
	})
	events := tf.TraceEvents
	tids := map[uint32]bool{}
	for i := int64(0); i < kept; i++ {
		rec := &r.recs[(total-kept+i)&(ringCap-1)]
		tids[rec.tid] = true
		events = append(events, traceEvent{
			Name: SpanID(rec.id).String(), Ph: "X",
			Ts: float64(rec.start) / 1e3, Dur: float64(rec.dur) / 1e3,
			Pid: rank, Tid: int(rec.tid),
		})
	}
	for tid := range tids {
		name := "main"
		if tid != 0 {
			name = fmt.Sprintf("worker %d", tid)
		}
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: rank, Tid: int(tid),
			Args: map[string]any{"name": name},
		})
	}
	// Chrome sorts internally, but a time-ordered file is easier to eyeball
	// and diff. Metadata events (ts 0) sort first.
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	tf.TraceEvents = events
	data, err := json.Marshal(&tf)
	if err != nil {
		return fmt.Errorf("obs: encoding trace for rank %d: %w", rank, err)
	}
	if err := os.WriteFile(TracePath(t.dir, rank), data, 0o644); err != nil {
		return fmt.Errorf("obs: writing trace for rank %d: %w", rank, err)
	}
	return nil
}
