// Package network is the distributed substrate the detection algorithms
// run on. The paper evaluates on an Amazon EC2 cluster; here each site is
// an isolated state container and every cross-site byte flows through a
// Cluster, which meters messages, payload bytes and shipped eqids — the
// quantities behind the paper's Figs. 9(c), 9(h) and 10.
//
// A site is built one way — registered on a cluster from its hello
// (sitehost.HostSite) — and reached in one of two ways: natively, on the
// cluster it is registered on, in process (deterministic, used by tests
// and benchmarks), or through the framed TCP transport to the daemon
// hosting it (tcp.go), where the call's method handle (Method) goes by
// its name; in process it is an index into the site's handler table. A
// shipped byte has one definition on both: a cross-site call is metered
// at the length of its Marshal payload — the descriptor-free positional
// encoding of internal/wire — request plus reply. The TCP path holds
// those bytes and counts them; the native path, which ships none, counts
// them with the codec's sizing pass over the plans the handle resolved.
// The codec is canonical, so the two agree byte for byte.
//
// Fan-outs — one coordinator addressing many sites — go through the
// scatter/gather engine of fanout.go: deterministic reply order and error
// selection, and meters that stay exact whatever its worker count.
package network

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// SiteID identifies a site (fragment host) in [0, n).
type SiteID int

// Transport delivers a request to a remotely hosted site's handler and
// returns the reply.
type Transport interface {
	Invoke(to SiteID, method string, data []byte) ([]byte, error)
	Close() error
}

// Stats is a snapshot of the traffic meters.
type Stats struct {
	// Messages counts cross-site request messages.
	Messages int64
	// Bytes counts cross-site payload bytes (requests plus replies).
	Bytes int64
	// Eqids counts equivalence-class ids shipped cross-site (§4/§5).
	Eqids int64
	// PerPair maps "from→to" to request bytes shipped on that edge,
	// the paper's M(i,j).
	PerPair map[string]int64
	// BusyNanos is per-site call time: the compute each site performed.
	// A call in a round inline on its caller is charged from the end of
	// the round's previous call (or its start) to the end of its handler,
	// the caller's work leading up to it included (see Lane); any other
	// call and every Dispatch its handler alone. The scaleup experiments
	// (§7 Exp-4/Exp-9) derive a simulated parallel elapsed time from it.
	BusyNanos []int64
	// RecvBytes is per-site received payload bytes (requests arriving
	// plus replies returning), for the same parallel model.
	RecvBytes []int64
}

// Sub returns s minus o, for measuring a window between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	d := Stats{
		Messages: s.Messages - o.Messages,
		Bytes:    s.Bytes - o.Bytes,
		Eqids:    s.Eqids - o.Eqids,
		PerPair:  make(map[string]int64),
	}
	for k, v := range s.PerPair {
		if dv := v - o.PerPair[k]; dv != 0 {
			d.PerPair[k] = dv
		}
	}
	d.BusyNanos, d.RecvBytes = subSites(s.BusyNanos, o.BusyNanos), subSites(s.RecvBytes, o.RecvBytes)
	return d
}

// subSites returns a minus b per site; b may be shorter.
func subSites(a, b []int64) []int64 {
	d := slices.Clone(a)
	for i := 0; i < len(a) && i < len(b); i++ {
		d[i] -= b[i]
	}
	return d
}

// SimParallelSeconds models the elapsed time of a perfectly overlapped
// distributed execution: the busiest site's compute plus its inbound
// traffic at the given per-byte cost (≈1 ns/byte for the gigabit NICs of
// the paper's EC2 era).
func (s Stats) SimParallelSeconds(nsPerByte float64) float64 {
	var max float64
	for i := range s.BusyNanos {
		v := float64(s.BusyNanos[i])
		if i < len(s.RecvBytes) {
			v += float64(s.RecvBytes[i]) * nsPerByte
		}
		if v > max {
			max = v
		}
	}
	return max / 1e9
}

// Pairs returns the PerPair keys sorted, for deterministic reporting.
func (s Stats) Pairs() []string {
	out := make([]string, 0, len(s.PerPair))
	for k := range s.PerPair {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Method is the handle of one call method, Req in, Resp out: its name,
// which a remote call's envelope carries and Dispatch serves, its index
// into every site's handler table, all an in-process call looks up, and
// the codec plans a metered call sizes its payloads with. A protocol
// package declares one per method, once, and registers it on its sites.
type Method[Req, Resp any] struct {
	name string
	idx  int // from 1: no handle maps to a table's first slot
	req  wire.Plan[Req]
	resp wire.Plan[Resp]
	// sizing is where a metered call puts its request and reply for the
	// sizing pass, which reads through a pointer: the values themselves
	// would move to the heap, per call. A concurrent caller that finds
	// it taken makes its own.
	sizing atomic.Pointer[payloads[Req, Resp]]
}

// payloads are a metered call's request and reply.
type payloads[Req, Resp any] struct {
	req  Req
	resp Resp
}

// size returns the payload bytes of a call of m: the lengths of req's
// and resp's Marshal encodings, counted without encoding.
func (m *Method[Req, Resp]) size(req Req, resp Resp) (reqBytes, respBytes int) {
	if n, ok := m.req.Fixed(); ok {
		if k, ok := m.resp.Fixed(); ok {
			return n, k // nothing to read, such as a barrier's
		}
	}
	p := m.sizing.Swap(nil)
	if p == nil {
		p = new(payloads[Req, Resp])
	}
	p.req, p.resp = req, resp
	reqBytes, respBytes = m.req.Size(&p.req), m.resp.Size(&p.resp)
	*p = payloads[Req, Resp]{} // keep no reference to the call's values
	m.sizing.Store(p)
	return reqBytes, respBytes
}

var methods atomic.Int64 // the handles NewMethod has made

// NewMethod declares the handle of method name. A Req or Resp the payload
// codec cannot carry panics here — at start-up — rather than failing a
// call mid-round.
func NewMethod[Req, Resp any](name string) *Method[Req, Resp] {
	req, err := wire.PlanOf[Req]()
	resp, rerr := wire.PlanOf[Resp]()
	if err = errors.Join(err, rerr); err != nil {
		panic(fmt.Sprintf("network: method %q: %v", name, err))
	}
	return &Method[Req, Resp]{name: name, idx: int(methods.Add(1)), req: req, resp: resp}
}

// Name returns the method's name.
func (m *Method[Req, Resp]) Name() string { return m.name }

// NoHandlerError is a call to a method the site does not serve.
type NoHandlerError struct {
	Site   SiteID
	Method string
}

func (e *NoHandlerError) Error() string {
	return fmt.Sprintf("network: site %d has no handler %q", e.Site, e.Method)
}

// Cluster is a set of sites plus the metered message fabric between them.
type Cluster struct {
	n int

	// handlers holds each site's handler table, read without a lock;
	// RegisterFunc, under mu, installs a copy with one more handler.
	mu       sync.Mutex
	handlers []atomic.Pointer[siteHandlers]
	siteMu   []sync.Mutex

	// transport, when non-nil, reaches the sites where they are hosted
	// (TCP daemons); nil means they are registered here.
	transport Transport

	// The meters: pair is PerPair by from*n + to, and paired marks the
	// edges a payload crossed, zero-byte ones included; busy needs no lock.
	statMu      sync.Mutex
	msgs, eqids int64
	pair        []int64
	paired      []bool
	busy        []atomic.Int64

	// lone is the lane of every call outside an inline round, never
	// written; spare keeps an inline round's lane for the next round.
	lone  Lane
	spare atomic.Pointer[Lane]

	maxFanout atomic.Int64 // a fan-out's worker cap; <= 0: the default
	fan       *fanHandle   // the fan-out helpers parked between rounds
	linkRTT   atomic.Int64 // SetLinkRTT's round-trip, in nanoseconds
}

// siteHandlers is one site's handler table, never changed once
// installed: raw serves Dispatch by name; typed holds each registered
// func(Req) (Resp, error) at its method's index.
type siteHandlers struct {
	raw   map[string]func([]byte) ([]byte, error)
	typed []any
}

// NewCluster creates a cluster of n sites, none registered yet.
func NewCluster(n int) *Cluster {
	if n <= 0 {
		panic(fmt.Sprintf("network: cluster needs at least one site, got %d", n))
	}
	c := &Cluster{
		n:        n,
		handlers: make([]atomic.Pointer[siteHandlers], n),
		siteMu:   make([]sync.Mutex, n),
		pair:     make([]int64, n*n),
		paired:   make([]bool, n*n),
		busy:     make([]atomic.Int64, n),
		fan:      newFanHandle(),
	}
	c.lone.c = c
	for i := range c.handlers {
		c.handlers[i].Store(&siteHandlers{raw: make(map[string]func([]byte) ([]byte, error))})
	}
	return c
}

// NumSites returns n.
func (c *Cluster) NumSites() int { return c.n }

// Lane is the clock a call's busy time is read off: a fan-out hands one
// to its calls, valid during the round. On the lane of a round inline on
// its caller, a call's window starts where the previous call's ended (or
// at the round's start), so n calls read the clock n+1 times; any other
// lane times each handler alone, with two reads.
type Lane struct {
	c      *Cluster
	inline bool
	mark   time.Duration // where an inline lane's next window starts
}

// Lane returns the lane of a call made outside any fan-out.
func (c *Cluster) Lane() *Lane { return &c.lone }

// inlineLane returns an inline round's lane, its window opening now.
func (c *Cluster) inlineLane() *Lane {
	l := c.spare.Swap(nil)
	if l == nil {
		l = &Lane{c: c, inline: true}
	}
	l.mark = now()
	return l
}

// clockBase is the origin of the busy meter's readings: a duration since
// it reads only the monotonic clock.
var clockBase = time.Now()

func now() time.Duration { return time.Since(clockBase) }

// run runs f under the site's lock and charges the site its window on l.
func run[Req, Resp any](l *Lane, to SiteID, f func(Req) (Resp, error), req Req) (Resp, error) {
	c := l.c
	c.siteMu[to].Lock()
	start := l.mark
	if !l.inline {
		start = now()
	}
	resp, err := f(req)
	end := now()
	c.siteMu[to].Unlock()
	if l.inline {
		l.mark = end
	}
	c.busy[to].Add(int64(end - start))
	return resp, err
}

// Dispatch runs the registered handler for (to, method) on raw bytes:
// the entry point a site daemon serves its framed calls through.
func (c *Cluster) Dispatch(to SiteID, method string, data []byte) ([]byte, error) {
	if uint(to) >= uint(c.n) {
		return nil, fmt.Errorf("network: no site %d", to)
	}
	h, ok := c.handlers[to].Load().raw[method]
	if !ok {
		return nil, &NoHandlerError{Site: to, Method: method}
	}
	return run(&c.lone, to, h, data)
}

// Methods returns the method names registered at site, sorted.
func (c *Cluster) Methods(site SiteID) []string {
	raw := c.handlers[site].Load().raw
	out := make([]string, 0, len(raw))
	for m := range raw {
		out = append(out, m)
	}
	slices.Sort(out)
	return out
}

// UseRemoteTransport installs a transport that reaches sites hosted at
// its remote end (the TCP sited deployment), on a cluster where no site
// is registered. Every call, same-site included, ships through it; the
// transport's framing overhead is metered apart (FrameBytes).
func (c *Cluster) UseRemoteTransport(t Transport) { c.transport = t }

// FrameBytes returns the transport's physical framing overhead in bytes
// (0 for in-process sites and transports without the meter).
func (c *Cluster) FrameBytes() int64 {
	if fb, ok := c.transport.(interface{ FrameBytes() int64 }); ok {
		return fb.FrameBytes()
	}
	return 0
}

// SetLinkRTT sets a simulated network round-trip charged to every
// cross-site call, as the paper's EC2 cluster pays on every message; no
// meter changes. Sequential fan-out pays breadth × RTT per round,
// parallel fan-out about one RTT, even on one core. A nonzero RTT is
// also what makes an in-process cluster's fan-outs run concurrently.
func (c *Cluster) SetLinkRTT(d time.Duration) { c.linkRTT.Store(int64(d)) }

// canWait reports whether a call on this cluster can wait on something
// other than a site lock: a remote transport's socket or a simulated
// link round-trip. Only then does a fan-out overlap its calls.
func (c *Cluster) canWait() bool { return c.transport != nil || c.linkRTT.Load() > 0 }

// Call sends req from site from to method m of site to, on lane l, and
// returns the reply. A call with from == to is local computation and
// never metered. A cross-site call counts one message and the payload
// bytes of its request and reply, whether or not the caller reads it.
// A site that has no handler of m answers a *NoHandlerError.
func Call[Req, Resp any](l *Lane, from, to SiteID, m *Method[Req, Resp], req Req) (Resp, error) {
	c := l.c
	if c.transport != nil {
		return callRemote(c, from, to, m, req)
	}
	var f func(Req) (Resp, error)
	if uint(to) >= uint(c.n) {
		return *new(Resp), fmt.Errorf("network: no site %d", to)
	} else if typed := c.handlers[to].Load().typed; m.idx < len(typed) {
		f, _ = typed[m.idx].(func(Req) (Resp, error))
	}
	if f == nil {
		return *new(Resp), &NoHandlerError{Site: to, Method: m.name}
	}
	if from == to {
		return run(l, to, f, req)
	}
	if d := time.Duration(c.linkRTT.Load()); d > 0 {
		time.Sleep(d)
	}
	resp, err := run(l, to, f, req)
	if err != nil {
		return resp, err
	}
	reqBytes, respBytes := m.size(req, resp)
	c.statMu.Lock()
	c.meterLocked(from, to, reqBytes, respBytes)
	c.statMu.Unlock()
	return resp, nil
}

// callRemote ships a call through the state-hosting transport. Same-site
// calls (local computation, e.g. seed-mode traffic) travel to the daemon
// but stay unmetered, exactly as they are free in process. The simulated
// link RTT is not charged: a real network is paying real latency.
func callRemote[Req, Resp any](c *Cluster, from, to SiteID, m *Method[Req, Resp], req Req) (Resp, error) {
	var resp Resp
	data := m.req.Marshal(&req)
	respData, err := c.transport.Invoke(to, m.name, data)
	if err != nil {
		return resp, err
	}
	if from != to {
		c.statMu.Lock()
		c.meterLocked(from, to, len(data), len(respData))
		c.statMu.Unlock()
	}
	if err := m.resp.Unmarshal(respData, &resp); err != nil {
		return resp, fmt.Errorf("network: unmarshal %s reply: %w", m.name, err)
	}
	return resp, nil
}

// meterLocked counts one cross-site message of the given payload sizes;
// the caller holds statMu.
func (c *Cluster) meterLocked(from, to SiteID, reqBytes, respBytes int) {
	c.msgs++
	out := int(from)*c.n + int(to)
	c.pair[out] += int64(reqBytes)
	c.paired[out] = true
	if respBytes > 0 {
		back := int(to)*c.n + int(from)
		c.pair[back] += int64(respBytes)
		c.paired[back] = true
	}
}

// AddEqids notes that n equivalence-class ids were shipped cross-site; the
// §4/§5 algorithms call it alongside the messages carrying them.
func (c *Cluster) AddEqids(n int) {
	c.statMu.Lock()
	c.eqids += int64(n)
	c.statMu.Unlock()
}

// Stats returns a snapshot of the meters. Bytes and RecvBytes are sums
// over the pair matrix: every payload byte crossed one edge.
func (c *Cluster) Stats() Stats {
	st := Stats{PerPair: make(map[string]int64), BusyNanos: make([]int64, c.n), RecvBytes: make([]int64, c.n)}
	c.statMu.Lock()
	st.Messages, st.Eqids = c.msgs, c.eqids
	for k, b := range c.pair {
		if c.paired[k] {
			st.PerPair[fmt.Sprintf("%d→%d", k/c.n, k%c.n)] = b
		}
		st.Bytes += b
		st.RecvBytes[k%c.n] += b
	}
	c.statMu.Unlock()
	for i := range c.busy {
		st.BusyNanos[i] = c.busy[i].Load()
	}
	return st
}

// ResetStats zeroes the meters.
func (c *Cluster) ResetStats() {
	c.statMu.Lock()
	c.msgs, c.eqids = 0, 0
	clear(c.pair)
	clear(c.paired)
	c.statMu.Unlock()
	for i := range c.busy {
		c.busy[i].Store(0)
	}
}

// Close stops the parked fan-out helpers, waiting for them to exit, and
// shuts the transport down, if there is one. It must not run concurrently with a fan-out; a
// fan-out after it still runs, on helpers that exit when it ends.
func (c *Cluster) Close() error {
	c.fan.stop()
	if c.transport == nil {
		return nil
	}
	return c.transport.Close()
}

// RegisterFunc installs f as site's handler of method m in both its
// forms: the raw one Dispatch serves framed calls through, by m's name,
// and the typed one in-process calls reach by m's index. Handlers must
// not retain or mutate their arguments: in process they are shared with
// the caller. The reply is the other half of that contract: an
// in-process reply may share the site's memory until that site's next
// call of the method, which may reuse it, so a caller must read it —
// and never write it — before then. Both engines' sites answer small
// calls from arrays they keep per method on these terms, bounded so a
// large reply (a seeding wave) gets arrays of its own. The raw form
// encodes the reply before that call can run.
func RegisterFunc[Req, Resp any](c *Cluster, site SiteID, m *Method[Req, Resp], f func(Req) (Resp, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.handlers[site].Load()
	if _, dup := old.raw[m.name]; dup {
		panic(fmt.Sprintf("network: site %d already has handler %q", site, m.name))
	}
	hs := &siteHandlers{raw: maps.Clone(old.raw), typed: slices.Clone(old.typed)}
	hs.raw[m.name] = func(data []byte) ([]byte, error) {
		var req Req
		if err := m.req.Unmarshal(data, &req); err != nil {
			return nil, err
		}
		resp, err := f(req)
		if err != nil {
			return nil, err
		}
		return m.resp.Marshal(&resp), nil
	}
	if len(hs.typed) <= m.idx {
		hs.typed = append(hs.typed, make([]any, m.idx+1-len(hs.typed))...)
	}
	hs.typed[m.idx] = f
	c.handlers[site].Store(hs)
}
