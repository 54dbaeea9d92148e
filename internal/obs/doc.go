// Package obs is the run-wide observability layer: a per-rank phase clock, a
// low-overhead span tracer, a typed metrics registry, a structured per-rank
// run journal, and an opt-in live debug HTTP endpoint.
//
// # Phase clock
//
// SpanID is the one phase-name table. Phases is a rank's phase clock: Time
// runs a phase, reads the clock once at each end, adds the interval to a
// fixed per-SpanID sum and, when tracing is armed, writes the same interval
// into the rank's trace ring, so the phase split, the journal's per-step
// phase_ms and the trace agree to the nanosecond. Split records one
// measured interval as two adjacent phases (the tree walk's modeled kernel
// share, then the walk). PhaseSums.Fractions and Busy report the leaf
// phases; the enclosing step and kick phases are not summed into them.
//
// # Span tracer
//
// The tracer records (start, duration) spans for the instrumented phases of
// a run — the core step loop (kick/stream/build/walk/FFT/comm/rebalance/
// analysis/checkpoint), blocking mpi operations, and gio container writes —
// into fixed-capacity per-rank rings, and flushes them as Chrome
// trace-event JSON (one trace.r%03d.json per rank, loadable in
// chrome://tracing or https://ui.perfetto.dev; pid = rank, tid = worker, so
// a 4-rank run renders as four lanes).
//
// Arming follows the same discipline as internal/fault: a process-global
// atomic pointer, armed by ArmTracing (Config.TraceDir / `haccsim -trace`).
// When disarmed, Begin is one atomic load returning 0 and End is one
// predictable branch — the hot paths stay allocation-free and effectively
// unmeasurable, pinned by TestDisarmedTraceAllocFree and the kernel
// benchmark alloc pins. Each rank's ring is single-writer (the rank's own
// goroutine); wrap-around overwrites the oldest spans and counts drops.
//
// # Metrics
//
// Registry is a typed, name-keyed set of counters, gauges, and fixed-bucket
// histograms. All three are allocation-free on the observation path (atomic
// adds into pre-sized bucket arrays), so the mpi runtime can record a wire
// message's send→match latency on every delivery. Histogram bounds are
// fixed at creation, which makes per-rank counts mergeable with one
// collective reduction — QuantileFromCounts then turns the merged counts
// into the p50/p99 column of the bench phase report.
//
// # Journal
//
// Journal is a per-rank JSONL appender: one self-describing record per
// line (step summaries, checkpoint outcomes, supervisor incidents — see
// StepRecord, CheckpointRecord, IncidentRecord), opened O_APPEND so a
// crash or supervised restart never loses completed lines. TailJournal
// reads the last n records for the live debug endpoint.
//
// # Debug endpoint
//
// EnableDebug starts an HTTP listener (rank 0, `haccsim -debug-addr`)
// serving net/http/pprof profiles, the metrics registry as JSON
// (/debug/metrics), and the live journal tail (/debug/journal?n=100) on a
// private mux — importing this package does not pollute
// http.DefaultServeMux handlers beyond pprof's own init.
package obs
