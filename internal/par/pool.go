package par

import (
	"runtime"
	"sync"
)

type span struct{ lo, hi int }

// state is the part of the pool the workers reference. It deliberately
// excludes the Pool handle itself so that an abandoned Pool becomes
// unreachable and its finalizer can shut the workers down.
type state struct {
	body    func(lo, hi int) // set by For
	runBody func(w int)      // set by Run
	wg      sync.WaitGroup
}

// Pool is a fixed set of persistent worker goroutines. Dispatch is not
// reentrant: a loop body must not itself call into the same Pool.
type Pool struct {
	st    *state
	chans []chan span
}

// NewPool starts `workers` parked goroutines (minimum 1). Workers exit when
// the Pool is garbage-collected, so an abandoned Pool does not leak them
// past the next GC cycle.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	st := &state{}
	p := &Pool{st: st, chans: make([]chan span, workers)}
	for w := 0; w < workers; w++ {
		ch := make(chan span, 1)
		p.chans[w] = ch
		go func(ch chan span) {
			for sp := range ch {
				if st.runBody != nil {
					st.runBody(sp.lo)
				} else {
					st.body(sp.lo, sp.hi)
				}
				st.wg.Done()
			}
		}(ch)
	}
	runtime.SetFinalizer(p, func(p *Pool) {
		for _, ch := range p.chans {
			close(ch)
		}
	})
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return len(p.chans) }

// minSpan is the smallest per-worker range worth a dispatch; below it the
// channel round-trip costs more than the loop.
const minSpan = 2048

// For runs body over [0,n) split into contiguous shards, one per worker,
// and waits for completion. Small ranges run serially on the caller.
func (p *Pool) For(n int, body func(lo, hi int)) {
	p.ForGrain(n, minSpan, body)
}

// ForGrain is For with an explicit grain: the smallest per-worker span worth
// a dispatch. Use it when one index represents substantial work (a whole FFT
// row, say) and the default element-count heuristic would stay serial.
func (p *Pool) ForGrain(n, grain int, body func(lo, hi int)) {
	if grain < 1 {
		grain = 1
	}
	threads := len(p.chans)
	if lim := n / grain; threads > lim {
		threads = lim
	}
	if threads <= 1 {
		body(0, n)
		return
	}
	st := p.st
	st.body = body
	st.wg.Add(threads)
	for t := 0; t < threads; t++ {
		p.chans[t] <- span{n * t / threads, n * (t + 1) / threads}
	}
	st.wg.Wait()
	st.body = nil
}

// Run invokes body(w) concurrently on workers w = 0..k-1 (clamped to the
// pool size; k ≤ 0 means all workers) and waits. Use it for dynamically
// load-balanced loops: bodies pull work from a shared atomic counter and
// index per-worker scratch by w.
func (p *Pool) Run(k int, body func(w int)) {
	if k <= 0 || k > len(p.chans) {
		k = len(p.chans)
	}
	if k == 1 {
		body(0)
		return
	}
	st := p.st
	st.runBody = body
	st.wg.Add(k)
	for t := 0; t < k; t++ {
		p.chans[t] <- span{t, 0}
	}
	st.wg.Wait()
	st.runBody = nil
}
