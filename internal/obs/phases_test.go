package obs_test

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"hacc/internal/core"
	"hacc/internal/machine"
	"hacc/internal/mpi"
	"hacc/internal/obs"
)

// One source of timing truth: a traced 2-rank run's phase clock and its
// trace ring record the same intervals, so for every phase core times, the
// clock's per-rank sum equals the sum of that rank's ring spans to the
// nanosecond. The journal carries one step record per step with
// non-negative per-phase deltas, and on a tree run every phase the
// benchmark reads by name is non-zero. The test lives beside obs because it
// reads the ring through an accessor only obs's tests can see.
func TestPhaseClockMatchesTrace(t *testing.T) {
	if machine.CommPost != obs.SpanCommPost.String() || machine.CommWait != obs.SpanCommWait.String() {
		t.Fatalf("machine comm names %q/%q differ from the span names %q/%q",
			machine.CommPost, machine.CommWait, obs.SpanCommPost, obs.SpanCommWait)
	}
	for _, solver := range []core.SolverKind{core.PPTreePM, core.P3M} {
		t.Run(solver.String(), func(t *testing.T) {
			const ranks = 2
			dir := t.TempDir()
			defer obs.DisarmTracing()
			cfg := core.Config{
				NGrid: 12, NParticles: 12, BoxMpc: 96,
				ZInit: 24, ZFinal: 10, Steps: 2, SubCycles: 2,
				Solver: solver, Seed: 7, TraceDir: dir,
			}
			var clock, ring [ranks]obs.PhaseSums
			var dropped [ranks]int64
			var gets [ranks]map[string]time.Duration
			err := mpi.Run(ranks, func(c *mpi.Comm) {
				s, err := core.New(c, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if err := s.Run(nil); err != nil {
					t.Error(err)
					return
				}
				r := c.Rank()
				clock[r] = s.Timers.Sums()
				ring[r], dropped[r] = obs.RingSums(r)
				gets[r] = map[string]time.Duration{}
				for _, n := range []string{"kernel", "walk", "build", "fft", "cic", machine.CommPost, machine.CommWait, "stream"} {
					gets[r][n] = s.Timers.Get(n)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < ranks; r++ {
				if dropped[r] != 0 {
					t.Fatalf("rank %d ring dropped %d spans in a tiny run", r, dropped[r])
				}
				for i := range clock[r] {
					id := obs.SpanID(i)
					switch id {
					case obs.SpanRecv, obs.SpanGioWrite:
						continue // trace-only spans, not on the phase clock
					}
					if clock[r][id] != ring[r][id] {
						t.Errorf("rank %d %s: clock %v, ring %v", r, id, clock[r][id], ring[r][id])
					}
				}
				for _, id := range []obs.SpanID{obs.SpanStep, obs.SpanKickLong, obs.SpanKickShort, obs.SpanKernel} {
					if clock[r][id] <= 0 {
						t.Errorf("rank %d recorded no %s time", r, id)
					}
				}
				if solver == core.PPTreePM {
					for n, d := range gets[r] {
						if d <= 0 {
							t.Errorf("rank %d: Get(%q) = %v on a tree run, want > 0", r, n, d)
						}
					}
				}
				checkStepRecords(t, obs.JournalPath(dir, r), cfg.Steps)
			}
		})
	}
}

// The phase split reads only the leaf phases: unentered phases are absent
// (no NaN shares), the enclosing step and kick phases are not summed, and
// Busy excludes the exposed comm wait.
func TestPhaseSumsSplit(t *testing.T) {
	var s obs.PhaseSums
	if fr := s.Fractions(); len(fr) != 0 || s.Busy() != 0 {
		t.Fatalf("empty sums: Fractions %v, Busy %v; want none, 0", fr, s.Busy())
	}
	s[obs.SpanStep] = time.Second
	s[obs.SpanKickShort] = time.Second
	s[obs.SpanKernel] = 70 * time.Millisecond
	s[obs.SpanCommPost] = 10 * time.Millisecond
	s[obs.SpanCommWait] = 20 * time.Millisecond
	fr := s.Fractions()
	want := []obs.PhaseFraction{{"kernel", 0.07, 0.7}, {"commwait", 0.02, 0.2}, {"commpost", 0.01, 0.1}}
	if len(fr) != len(want) {
		t.Fatalf("Fractions = %+v, want %+v", fr, want)
	}
	for i := range want {
		if fr[i].Name != want[i].Name || fr[i].Seconds != want[i].Seconds || math.Abs(fr[i].Fraction-want[i].Fraction) > 1e-12 {
			t.Errorf("Fractions[%d] = %+v, want %+v", i, fr[i], want[i])
		}
	}
	if got := s.Busy(); got != 80*time.Millisecond {
		t.Errorf("Busy = %v, want 80ms", got)
	}
	if got := obs.NewPhases(0).Get("no-such-phase"); got != 0 {
		t.Errorf("Get of an unknown name = %v, want 0", got)
	}
}

// checkStepRecords reads a rank journal and checks it holds exactly one step
// record for each of steps steps, each with leaf-phase keys only and
// non-negative times.
func checkStepRecords(t *testing.T, path string, steps int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[int]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec obs.StepRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if rec.Kind != "step" {
			continue
		}
		seen[rec.Step]++
		if rec.WallMs <= 0 || len(rec.PhaseMs) == 0 {
			t.Errorf("%s step %d: wall_ms %v, phase_ms %v", path, rec.Step, rec.WallMs, rec.PhaseMs)
		}
		for n, ms := range rec.PhaseMs {
			if ms < 0 {
				t.Errorf("%s step %d: phase_ms[%q] = %v", path, rec.Step, n, ms)
			}
			switch n {
			case obs.SpanStep.String(), obs.SpanKickLong.String(), obs.SpanKickShort.String():
				t.Errorf("%s step %d: phase_ms carries the enclosing phase %q", path, rec.Step, n)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= steps; s++ {
		if seen[s] != 1 {
			t.Errorf("%s: %d records for step %d, want 1", path, seen[s], s)
		}
	}
	if len(seen) != steps {
		t.Errorf("%s: step records %v, want steps 1..%d", path, seen, steps)
	}
}
