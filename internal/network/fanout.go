package network

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the concurrent scatter/gather engine. The paper's
// boundedness result (incremental cost in O(|∆D| + |∆V|)) presumes sites
// work in parallel: a coordinator that drives n sites one Call at a time
// turns every fan-out into an n-long critical path and makes wall-clock
// grow with the site count. Fanout/Broadcast/Gather run one logical
// round-trip per target concurrently, bounded by a worker cap, while the
// per-site handler locks keep each site's state single-threaded (a site
// still processes messages serially, as a real node would) and the meters
// stay exact: a message's metered size depends on nothing but its own
// payload, so byte and message counts are identical whether a fan-out
// runs with 1 worker or 16.

// FanoutOpts tunes one scatter/gather round.
type FanoutOpts struct {
	// MaxWorkers bounds the number of concurrent calls; 0 uses the
	// cluster default (SetMaxFanout), 1 degenerates to the sequential
	// path.
	MaxWorkers int
	// CollectErrors joins every failure into the returned error instead
	// of reporting only the first one. Either way all launched calls run
	// to completion: a site's state is never left mid-protocol because a
	// sibling failed.
	CollectErrors bool
}

// defaultFanoutCap bounds a fan-out's worker count when the cluster has
// no explicit cap. Workers spend most of their time blocked on another
// site's lock, a socket, or simulated link latency, so the right bound
// tracks fan-out breadth (what a real coordinator overlaps with async
// I/O), not GOMAXPROCS — on a single-core host breadth-wide overlap is
// exactly what still wins.
const defaultFanoutCap = 32

// SetMaxFanout sets the default worker cap for Fanout/Broadcast/Gather.
// k = 1 forces sequential fan-outs (the comparison baseline for the
// scaleup experiments); k <= 0 restores the default (breadth, capped at
// defaultFanoutCap but never below GOMAXPROCS).
func (c *Cluster) SetMaxFanout(k int) {
	c.statMu.Lock()
	c.maxFanout = k
	c.statMu.Unlock()
}

// MaxFanout returns the effective default worker cap.
func (c *Cluster) MaxFanout() int {
	c.statMu.Lock()
	k := c.maxFanout
	c.statMu.Unlock()
	if k <= 0 {
		k = defaultFanoutCap
		if p := runtime.GOMAXPROCS(0); p > k {
			k = p
		}
	}
	return k
}

func (c *Cluster) workersFor(n int, opts FanoutOpts) int {
	w := opts.MaxWorkers
	if w <= 0 {
		w = c.MaxFanout()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Fanout runs fn(i) for i in [0, n) concurrently with a bounded worker
// pool. With one worker the indices run in order, exactly like the serial
// loop it replaces. Every index runs even after a failure; the error
// returned is the lowest-index one (or all of them joined, under
// CollectErrors), so the outcome is deterministic regardless of
// scheduling.
func (c *Cluster) Fanout(n int, opts FanoutOpts, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := c.workersFor(n, opts)
	if workers == 1 || n == 1 {
		var errs []error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				errs = append(errs, err)
			}
		}
		if len(errs) == 0 {
			return nil
		}
		if !opts.CollectErrors {
			return errs[0]
		}
		return errors.Join(errs...)
	}

	// Work-stealing off an atomic counter; the caller's goroutine is
	// worker 0, so a fan-out of w workers spawns only w-1 goroutines and
	// per-round overhead stays small even for the per-update micro
	// fan-outs.
	type failure struct {
		i   int
		err error
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []failure
		next atomic.Int64
	)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				mu.Lock()
				errs = append(errs, failure{i, err})
				mu.Unlock()
			}
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if len(errs) == 0 {
		return nil
	}
	sort.Slice(errs, func(a, b int) bool { return errs[a].i < errs[b].i })
	if !opts.CollectErrors {
		return errs[0].err
	}
	all := make([]error, len(errs))
	for i, f := range errs {
		all[i] = f.err
	}
	return errors.Join(all...)
}

// CallFunc is the signature of Cluster.Call. Protocol packages whose
// send path wraps Call (e.g. rewriting the caller during unmetered seed
// mode) pass their own to the *Via variants.
type CallFunc func(from, to SiteID, method string, args, reply any) error

// Broadcast sends the same request from one site to every target
// concurrently, discarding replies. Targets must not include from unless
// a same-site call is intended (which is local and unmetered, as with
// Call).
func (c *Cluster) Broadcast(from SiteID, method string, args any, targets []SiteID, opts FanoutOpts) error {
	return c.BroadcastVia(c.Call, from, method, args, targets, opts)
}

// BroadcastVia is Broadcast through a custom call function.
func (c *Cluster) BroadcastVia(call CallFunc, from SiteID, method string, args any, targets []SiteID, opts FanoutOpts) error {
	return c.Fanout(len(targets), opts, func(i int) error {
		return call(from, targets[i], method, args, nil)
	})
}

// Gather scatters one request per target concurrently and collects the
// replies in target order, so callers can merge them deterministically.
// req builds the (possibly per-site) request; a nil slice is returned on
// error under first-error semantics.
func Gather[Req, Resp any](c *Cluster, from SiteID, method string, targets []SiteID, req func(SiteID) Req, opts FanoutOpts) ([]Resp, error) {
	return GatherVia[Req, Resp](c, c.Call, from, method, targets, req, opts)
}

// GatherVia is Gather through a custom call function.
func GatherVia[Req, Resp any](c *Cluster, call CallFunc, from SiteID, method string, targets []SiteID, req func(SiteID) Req, opts FanoutOpts) ([]Resp, error) {
	replies := make([]Resp, len(targets))
	err := c.Fanout(len(targets), opts, func(i int) error {
		return call(from, targets[i], method, req(targets[i]), &replies[i])
	})
	if err != nil && !opts.CollectErrors {
		return nil, err
	}
	return replies, err
}
