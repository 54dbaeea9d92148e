package fault

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Named injection points. Each hook site in the framework identifies itself
// with one of these when it asks the armed injector whether to misbehave.
const (
	// PointSend fires in the comm layer before a point-to-point message is
	// delivered (including the sends inside collectives).
	PointSend = "send"
	// PointRecv fires before a blocking receive parks.
	PointRecv = "recv"
	// PointCollective fires on entry to a collective operation.
	PointCollective = "collective"
	// PointWrite fires per chunk inside the container write paths.
	PointWrite = "write"
	// PointRead fires when a container is opened or a block is read.
	PointRead = "read"
	// PointFsync fires on every file or directory sync in the I/O layer.
	PointFsync = "fsync"
	// PointStep fires at the top of every full simulation step; the step
	// index is reported, so plans can target "rank 2 at step 3".
	PointStep = "step"
)

// Verb is what a matched rule does to the hook site.
type Verb int

// Rule verbs. Kill panics with a *Crash (a simulated rank death); Hang
// parks the goroutine until Interrupt or Disarm releases it (a simulated
// wedged rank); Fail makes an I/O or step site return an injected error;
// Drop silently discards a message at the send site; Torn makes a write
// site write only part of its chunk before failing; Delay sleeps, then
// lets the operation proceed.
const (
	Kill Verb = iota
	Hang
	Fail
	Drop
	Torn
	Delay
)

func (v Verb) String() string {
	switch v {
	case Kill:
		return "kill"
	case Hang:
		return "hang"
	case Fail:
		return "fail"
	case Drop:
		return "drop"
	case Torn:
		return "torn"
	case Delay:
		return "delay"
	}
	return fmt.Sprintf("verb(%d)", int(v))
}

// Outcome is what a hook site must do after a Hit.
type Outcome int

// Hit outcomes. None means proceed normally (Kill panics and Hang blocks
// inside Hit, so neither has an outcome; Delay returns None after
// sleeping). Failed and TornWrite instruct I/O sites to error out; Dropped
// instructs the send site to discard the message.
const (
	None Outcome = iota
	Failed
	Dropped
	TornWrite
)

// Rule is one parsed fault rule: fire Verb at Point, restricted by the
// optional rank/step selectors and paced by the event selectors.
type Rule struct {
	Verb  Verb
	Point string
	Rank  int           // world rank to match; -1 matches any
	Step  int           // step index to match (PointStep only); -1 matches any
	Every int           // fire on every Every-th matching event (1 = every match)
	After int           // skip the first After matching events
	Count int           // fire at most Count times; 0 = unlimited
	Prob  float64       // fire with this probability (0 or 1 = always)
	Delay time.Duration // sleep duration for the Delay verb

	hits  int // matching events seen (guarded by the injector mutex)
	fired int // times this rule fired
}

// matches reports whether an event at (point, rank, step) selects the rule.
func (r *Rule) matches(point string, rank, step int) bool {
	if r.Point != point {
		return false
	}
	if r.Rank >= 0 && rank >= 0 && r.Rank != rank {
		return false
	}
	if r.Rank >= 0 && rank < 0 {
		// The site does not know its rank; a rank-restricted rule never
		// fires there rather than firing for everyone.
		return false
	}
	if r.Step >= 0 && r.Step != step {
		return false
	}
	return true
}

// Plan is a parsed fault plan: an ordered rule list plus the seed that
// makes probabilistic rules deterministic.
type Plan struct {
	Rules []Rule
	Seed  uint64
}

// Event records one fired rule, for test assertions and incident reports.
type Event struct {
	Point string
	Rank  int
	Step  int
	Verb  Verb
	Rule  int // index into the armed plan's rules
}

func (e Event) String() string {
	return fmt.Sprintf("%s@%s rank=%d step=%d (rule %d)", e.Verb, e.Point, e.Rank, e.Step, e.Rule)
}

// maxEvents bounds the fired-event log so an unlimited drop-every-send
// rule cannot grow it without bound; later events are counted, not stored.
const maxEvents = 4096

// Injector is an armed fault plan. Hook sites reach it through Armed (one
// atomic pointer load, nil when no plan is armed — the entire cost of the
// framework on an un-faulted run); all rule state is guarded by one mutex,
// taken only when a plan is armed.
type Injector struct {
	mu      sync.Mutex
	rules   []Rule
	seed    uint64
	rng     uint64 // SplitMix64 state for probabilistic rules
	stop    chan struct{}
	events  []Event
	dropped int // events not stored because the log was full
}

// armed is the process-global injector; ranks are goroutines in one
// process, so one armed plan covers the whole world. Arming is not
// per-world: tests that arm a plan must not run in parallel with other
// fault tests.
var armed atomic.Pointer[Injector]

// Arm parses nothing: it installs an already-parsed plan as the process
// injector and returns it. Any previously armed plan is replaced (its
// hanging hooks are released). The typical sequence is
// fault.Arm(fault.MustParse("kill rank 2 at step 3")) before a run and
// defer fault.Disarm().
func Arm(p *Plan) *Injector {
	inj := &Injector{
		rules: append([]Rule(nil), p.Rules...),
		seed:  p.Seed,
		rng:   p.Seed ^ 0x9e3779b97f4a7c15,
		stop:  make(chan struct{}),
	}
	if old := armed.Swap(inj); old != nil {
		old.release(false)
	}
	return inj
}

// Armed returns the armed injector, or nil. This is the only call on the
// un-faulted hot path: one atomic load and a nil check, no allocation.
func Armed() *Injector { return armed.Load() }

// Disarm removes the armed plan and releases every goroutine a Hang rule
// parked. Safe to call when nothing is armed.
func Disarm() {
	if inj := armed.Swap(nil); inj != nil {
		inj.release(false)
	}
}

// Interrupt releases every goroutine currently parked by a Hang rule but
// keeps the plan armed (with a fresh hang latch). Supervisors call it
// during teardown so a hung rank drains instead of leaking, while
// still-unfired rules stay live for the next attempt. Safe when nothing is
// armed.
func Interrupt() {
	if inj := armed.Load(); inj != nil {
		inj.release(true)
	}
}

// release closes the hang latch, optionally renewing it.
func (i *Injector) release(renew bool) {
	i.mu.Lock()
	select {
	case <-i.stop:
	default:
		close(i.stop)
	}
	if renew {
		i.stop = make(chan struct{})
	}
	i.mu.Unlock()
}

// splitmix64 advances the deterministic RNG (caller holds i.mu).
func (i *Injector) splitmix64() uint64 {
	i.rng += 0x9e3779b97f4a7c15
	z := i.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hit reports an event at a named injection point and applies the first
// rule that elects to fire. Kill panics with a *Crash and Hang parks the
// calling goroutine inside Hit; Delay sleeps and then returns None; the
// remaining verbs return their outcome for the site to act on. rank and
// step may be -1 when the site does not know them.
func (i *Injector) Hit(point string, rank, step int) Outcome {
	i.mu.Lock()
	var act *Rule
	actIdx := -1
	for ri := range i.rules {
		r := &i.rules[ri]
		if !r.matches(point, rank, step) {
			continue
		}
		r.hits++
		if act != nil {
			continue // an earlier rule already fired on this event
		}
		if r.hits <= r.After {
			continue
		}
		if r.Every > 1 && (r.hits-r.After)%r.Every != 0 {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 {
			if float64(i.splitmix64()>>11)/(1<<53) >= r.Prob {
				continue
			}
		}
		r.fired++
		act, actIdx = r, ri
	}
	if act == nil {
		i.mu.Unlock()
		return None
	}
	if len(i.events) < maxEvents {
		i.events = append(i.events, Event{Point: point, Rank: rank, Step: step, Verb: act.Verb, Rule: actIdx})
	} else {
		i.dropped++
	}
	verb, delay, stop := act.Verb, act.Delay, i.stop
	i.mu.Unlock()

	switch verb {
	case Kill:
		panic(&Crash{Rank: rank, Point: point, Step: step})
	case Hang:
		<-stop
		return None
	case Delay:
		time.Sleep(delay)
		return None
	case Fail:
		return Failed
	case Drop:
		return Dropped
	case Torn:
		return TornWrite
	}
	return None
}

// HitErr is Hit for sites that surface faults as errors: Failed and
// TornWrite become a *InjectedError (with Torn set for the latter), every
// other outcome is nil.
func (i *Injector) HitErr(point string, rank, step int) error {
	switch i.Hit(point, rank, step) {
	case Failed:
		return &InjectedError{Point: point, Rank: rank}
	case TornWrite:
		return &InjectedError{Point: point, Rank: rank, Torn: true}
	}
	return nil
}

// Events returns a copy of the fired-event log.
func (i *Injector) Events() []Event {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]Event(nil), i.events...)
}

// Fired returns how many times rules fired at the named point.
func (i *Injector) Fired(point string) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	count := 0
	for _, e := range i.events {
		if e.Point == point {
			count++
		}
	}
	return count
}

// Crash is the panic value of an injected Kill: a simulated rank death.
// It implements error, so mpi.Run's recovery wraps it and supervisors can
// identify injected crashes with errors.As.
type Crash struct {
	Rank  int
	Point string
	Step  int
}

func (c *Crash) Error() string {
	if c.Step >= 0 {
		return fmt.Sprintf("fault: injected kill of rank %d at step %d (point %s)", c.Rank, c.Step, c.Point)
	}
	return fmt.Sprintf("fault: injected kill of rank %d (point %s)", c.Rank, c.Point)
}

// InjectedError is the error an I/O or step site returns for a Fail or
// Torn outcome.
type InjectedError struct {
	Point string
	Rank  int // -1 when the site does not know its rank
	Torn  bool
}

func (e *InjectedError) Error() string {
	kind := "failure"
	if e.Torn {
		kind = "torn write"
	}
	if e.Rank >= 0 {
		return fmt.Sprintf("fault: injected %s %s on rank %d", e.Point, kind, e.Rank)
	}
	return fmt.Sprintf("fault: injected %s %s", e.Point, kind)
}
