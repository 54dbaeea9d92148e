package obs

import (
	"sort"
	"time"
)

// Phases is one rank's phase clock. Every core phase is timed once: the
// interval is added to the phase's sum and, when tracing is armed, written
// into the rank's trace ring, so the phase split, the journal and the trace
// agree to the nanosecond. The rank's own goroutine is the only writer, so
// recording takes no lock, touches no map and never allocates.
type Phases struct {
	rank int
	sums PhaseSums
}

// PhaseSums holds accumulated wall time per phase, indexed by SpanID.
type PhaseSums [numSpans]time.Duration

// PhaseFraction is one row of the phase split.
type PhaseFraction struct {
	Name     string
	Seconds  float64
	Fraction float64
}

// NewPhases returns an empty phase clock for rank.
func NewPhases(rank int) *Phases { return &Phases{rank: rank} }

// Time runs fn and charges its interval to phase id.
func (p *Phases) Time(id SpanID, fn func()) {
	t0 := time.Now()
	fn()
	p.add(id, t0, time.Since(t0))
}

// Split runs fn and charges its interval to two adjacent phases: the leading
// fraction fn returns (in [0,1]) to first, the remainder to rest. It serves
// an interval measured once whose division is modeled rather than timed.
func (p *Phases) Split(first, rest SpanID, fn func() float64) {
	t0 := time.Now()
	share := fn()
	d := time.Since(t0)
	k := time.Duration(float64(d) * share)
	p.add(first, t0, k)
	p.add(rest, t0.Add(k), d-k)
}

func (p *Phases) add(id SpanID, t0 time.Time, d time.Duration) {
	p.sums[id] += d
	if t := armed.Load(); t != nil {
		t.record(p.rank, 0, id, t0.UnixNano(), int64(d))
	}
}

// Sums returns a copy of the per-phase totals.
func (p *Phases) Sums() PhaseSums { return p.sums }

// Get returns the accumulated time of the phase with the given name (a
// SpanID name such as "kernel" or "commwait"); unknown names read zero.
func (p *Phases) Get(name string) time.Duration {
	for id, n := range spanNames {
		if n == name {
			return p.sums[id]
		}
	}
	return 0
}

// Fractions returns the leaf phases with recorded time, largest first, each
// with its share of the leaf total: the paper's "80% kernel, 10% walk, 5%
// FFT" breakdown (§III).
func (s PhaseSums) Fractions() []PhaseFraction {
	tot := s.leafTotal()
	var out []PhaseFraction
	for id, d := range s {
		if d > 0 && SpanID(id).leaf() {
			out = append(out, PhaseFraction{Name: spanNames[id], Seconds: d.Seconds(), Fraction: float64(d) / float64(tot)})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Fraction > out[j].Fraction })
	return out
}

// Busy returns the leaf total minus the exposed communication wait: the
// rank's working share. An idle rank parks in commwait while an overloaded
// one computes, so the spread of Busy across ranks is the step-time
// imbalance.
func (s PhaseSums) Busy() time.Duration { return s.leafTotal() - s[SpanCommWait] }

func (s PhaseSums) leafTotal() time.Duration {
	var t time.Duration
	for id, d := range s {
		if SpanID(id).leaf() {
			t += d
		}
	}
	return t
}
