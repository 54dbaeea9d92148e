package obs

import "time"

// RingSums sums the durations of rank's kept trace spans per SpanID, in
// nanoseconds as recorded: the trace's own view of where time went, read
// without the microsecond rounding of the flushed JSON. dropped counts the
// spans the ring has overwritten.
func RingSums(rank int) (sums PhaseSums, dropped int64) {
	t := armed.Load()
	if t == nil {
		return sums, 0
	}
	r := t.rings[rank]
	total := r.n.Load()
	kept := min(total, ringCap)
	for i := total - kept; i < total; i++ {
		rec := &r.recs[i&(ringCap-1)]
		sums[rec.id] += time.Duration(rec.dur)
	}
	return sums, total - kept
}
