package network

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the scatter/gather engine. The paper's boundedness result
// (incremental cost in O(|∆D| + |∆V|)) presumes sites work in parallel: a
// coordinator that waits on n sites one Call at a time turns every
// fan-out into an n-long critical path and makes wall-clock grow with the
// site count. Fanout and GatherVia run one logical round-trip per target,
// concurrently and bounded by a worker cap wherever a call can wait — on
// a remote transport's socket or on simulated link latency — while the
// per-site handler locks keep each site's state single-threaded (a site
// still processes messages serially, as a real node would) and the meters
// stay exact: a message's metered size depends on nothing but its own
// payload, so byte and message counts are identical whether a fan-out
// runs with 1 worker or 16.
//
// An in-process cluster at zero RTT has nothing to overlap: every call is
// site compute, and a hand-off to another goroutine is pure scheduling
// cost. There a round runs inline on the caller, in index order, exactly
// as with a cap of 1, and its calls share one lane: each reads the clock
// once, where its busy window ends and the next one's starts (Lane).
//
// A wave of one update is a dozen small fan-outs, so a round's fixed
// cost matters as much as its breadth. A round body gets its state as an
// argument — a static func over a pointer the caller already holds — so
// an inline round builds no closure and, once the cluster holds a spare
// lane, allocates nothing. A concurrent round wraps body and state in
// one closure for its helpers; the workers beyond the caller are helper
// goroutines the cluster keeps parked between rounds, and the round's
// bookkeeping (cursor, WaitGroup, error slot) is one reused run, so it
// spawns nothing once the helpers exist.

// defaultFanoutCap bounds a concurrent fan-out's worker count when the
// cluster has no explicit cap. Rounds run concurrently only where
// workers spend most of their time blocked on a socket or simulated link
// latency, so the right bound tracks fan-out breadth (what a real
// coordinator overlaps with async I/O), not GOMAXPROCS — on a
// single-core host breadth-wide overlap is exactly what still wins.
const defaultFanoutCap = 32

// SetMaxFanout sets the worker cap for Fanout and GatherVia where a call
// can wait (a remote transport or a nonzero link RTT); an in-process
// cluster at zero RTT runs every round inline whatever the cap. k = 1
// forces sequential fan-outs (the comparison baseline for the scaleup
// experiments); k <= 0 restores the default (breadth, capped at
// defaultFanoutCap but never below GOMAXPROCS).
func (c *Cluster) SetMaxFanout(k int) { c.maxFanout.Store(int64(k)) }

// MaxFanout returns the effective worker cap.
func (c *Cluster) MaxFanout() int {
	if k := int(c.maxFanout.Load()); k > 0 {
		return k
	}
	return max(defaultFanoutCap, runtime.GOMAXPROCS(0))
}

// fanRun is one multi-worker round: the work and its bookkeeping, handed
// to every helper that joins it.
type fanRun struct {
	n    int
	fn   func(l *Lane, i int) error
	lane *Lane        // the cluster's lone lane, which every worker may share
	next atomic.Int64 // the work-stealing cursor
	wg   sync.WaitGroup

	mu    sync.Mutex
	errAt int // index of err; meaningful when err != nil
	err   error
}

// work runs indices off the cursor until none are left, keeping the
// lowest-index failure.
func (r *fanRun) work() {
	for {
		i := int(r.next.Add(1)) - 1
		if i >= r.n {
			return
		}
		if err := r.fn(r.lane, i); err != nil {
			r.mu.Lock()
			if r.err == nil || i < r.errAt {
				r.errAt, r.err = i, err
			}
			r.mu.Unlock()
		}
	}
}

// fanPool is a cluster's parked helper goroutines. It holds no reference
// to the Cluster, so an unclosed cluster can still be collected.
type fanPool struct {
	// work hands a run to a parked helper; unbuffered, so a send
	// succeeds only into a helper that is, or is about to be, receiving.
	work chan *fanRun
	// idle counts helpers committed to receiving from work. A fan-out
	// claims one (decrement) before each send, so a claimed send never
	// blocks for long and never waits on a busy helper.
	idle     atomic.Int64
	closed   atomic.Bool
	stopOnce sync.Once
	helpers  sync.WaitGroup // running helpers, for stop to wait on
	// spare is the run a fan-out reuses; a nested or concurrent fan-out
	// that finds it taken allocates its own.
	spare atomic.Pointer[fanRun]
}

// fanHandle is the Cluster's reference to its pool, and nothing else's:
// when an unclosed cluster is dropped, the handle's finalizer stops the
// helpers. A finalizer on the Cluster itself would keep everything it
// reaches alive for another collection.
type fanHandle struct{ *fanPool }

func newFanHandle() *fanHandle {
	h := &fanHandle{&fanPool{work: make(chan *fanRun)}}
	runtime.SetFinalizer(h, func(h *fanHandle) { h.stop() })
	return h
}

// helper runs r, then parks for the next run until the pool stops.
func (p *fanPool) helper(r *fanRun) {
	defer p.helpers.Done()
	for r != nil {
		r.work()
		p.idle.Add(1) // before Done: the caller's next round sees us idle
		r.wg.Done()
		r = <-p.work // nil once the pool is stopped
	}
}

// stop makes every parked helper exit and waits for them. Fan-outs must
// not run concurrently with it; one started after it spawns helpers that
// exit when their run ends.
func (p *fanPool) stop() {
	p.stopOnce.Do(func() {
		p.closed.Store(true)
		close(p.work)
	})
	p.helpers.Wait()
}

// Fanout runs fn(st, l, i) for i in [0, n), concurrently with at most
// MaxFanout workers where a call can wait (canWait). Otherwise, or with
// one worker, the indices run in order on the caller, exactly like the
// serial loop it replaces. Every index runs even after a failure, and the
// error returned is the lowest-index one, so the outcome is deterministic
// regardless of scheduling. fn makes its calls on l. fn may itself fan
// out; a nested inline round has a lane of its own, so the outer lane's
// next window also spans it.
//
// st is the round's state and fn reads it through its first argument
// rather than capturing it: a func literal that captures nothing is
// static, so an inline round allocates no closure. st is shared with the
// helpers of a concurrent round, so escape analysis moves a local it
// points at to the heap: pass a pointer the caller already holds.
func Fanout[S any](c *Cluster, n int, st *S, fn func(st *S, l *Lane, i int) error) error {
	if c.canWait() {
		if workers := min(n, c.MaxFanout()); workers > 1 {
			return c.fanout(n, workers, func(l *Lane, i int) error { return fn(st, l, i) })
		}
		return inline(n, st, fn, &c.lone)
	}
	l := c.inlineLane()
	err := inline(n, st, fn, l)
	c.spare.Store(l)
	return err
}

// inline runs a round's indices in order on the caller, on lane l.
func inline[S any](n int, st *S, fn func(*S, *Lane, int) error, l *Lane) error {
	var first error
	for i := 0; i < n; i++ {
		if err := fn(st, l, i); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// fanout runs a concurrent round of workers: work-stealing off an atomic
// cursor, the caller's goroutine worker 0, the others parked helpers, or
// new ones when none is idle.
func (c *Cluster) fanout(n, workers int, fn func(l *Lane, i int) error) error {
	p := c.fan.fanPool
	r := p.spare.Swap(nil)
	if r == nil {
		r = new(fanRun)
	}
	r.n, r.fn, r.lane = n, fn, &c.lone
	r.next.Store(0)
	r.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		if p.claimIdle() {
			p.work <- r
		} else {
			p.helpers.Add(1)
			go p.helper(r)
		}
	}
	r.work()
	r.wg.Wait()
	err := r.err
	r.fn, r.lane, r.err = nil, nil, nil
	p.spare.Store(r)
	return err
}

// claimIdle takes one idle helper for a send, reporting false when there
// is none (or the pool has stopped, and sends would panic).
func (p *fanPool) claimIdle() bool {
	if p.closed.Load() {
		return false
	}
	for {
		k := p.idle.Load()
		if k <= 0 {
			return false
		}
		if p.idle.CompareAndSwap(k, k-1) {
			return true
		}
	}
}

// CallFunc is the signature of Call. Protocol packages whose send path
// wraps Call (e.g. rewriting the caller during unmetered seed mode) pass
// their own to GatherVia.
type CallFunc[Req, Resp any] func(l *Lane, from, to SiteID, m *Method[Req, Resp], req Req) (Resp, error)

// GatherVia scatters one request per target through call, on Fanout's
// workers, and collects the replies in target order, so callers can
// merge them deterministically. req builds the (possibly per-site)
// request; on error the replies are nil and the error is the
// lowest-index one.
func GatherVia[Req, Resp any](c *Cluster, call CallFunc[Req, Resp], from SiteID, m *Method[Req, Resp], targets []SiteID, req func(SiteID) Req) ([]Resp, error) {
	replies := make([]Resp, len(targets))
	err := Fanout(c, len(targets), nil, func(_ *struct{}, l *Lane, i int) error {
		var err error
		replies[i], err = call(l, from, targets[i], m, req(targets[i]))
		return err
	})
	if err != nil {
		return nil, err
	}
	return replies, nil
}
