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
// hosting it (tcp.go). A shipped byte has one definition on both: a
// cross-site call is metered at the length of its Marshal payload — the
// descriptor-free positional encoding of internal/wire — request plus
// reply. The TCP path holds those bytes and
// counts them; the native path, which ships none, encodes the same
// values into scratch to size them. The codec is canonical, so the two
// agree byte for byte.
//
// Fan-outs — one coordinator addressing many sites — go through the
// scatter/gather engine (Fanout and GatherVia in fanout.go): deterministic
// reply order and error selection, and meters that stay exact and
// identical whether a round runs with one worker or many. A round runs
// concurrently, on bounded workers parked between rounds, only where a
// call can wait: over a remote transport, or with SetLinkRTT's simulated
// per-message round-trip, the cost a real deployment pays and parallel
// fan-out overlaps. In process at zero RTT no call waits, so a round
// runs inline on the caller.
package network

import (
	"fmt"
	"maps"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// SiteID identifies a site (fragment host) in [0, n).
type SiteID int

// RawHandler is a registered message handler: Marshal-encoded request
// bytes in, Marshal-encoded reply bytes out.
type RawHandler func(data []byte) ([]byte, error)

// NativeHandler is the unserialized twin of a RawHandler, the form every
// call to an in-process site takes: the values themselves change hands.
type NativeHandler func(args any) (any, error)

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
	// BusyNanos is per-site handler execution time: the compute each
	// site performed. The scaleup experiments (§7 Exp-4/Exp-9) derive a
	// simulated parallel elapsed time from it.
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
	d.BusyNanos = make([]int64, len(s.BusyNanos))
	d.RecvBytes = make([]int64, len(s.RecvBytes))
	for i := range s.BusyNanos {
		d.BusyNanos[i] = s.BusyNanos[i]
		if i < len(o.BusyNanos) {
			d.BusyNanos[i] -= o.BusyNanos[i]
		}
	}
	for i := range s.RecvBytes {
		d.RecvBytes[i] = s.RecvBytes[i]
		if i < len(o.RecvBytes) {
			d.RecvBytes[i] -= o.RecvBytes[i]
		}
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
	sort.Strings(out)
	return out
}

// Cluster is a set of sites plus the metered message fabric between them.
type Cluster struct {
	n int

	// handlers holds each site's handler table. A call reads it without a
	// lock; RegisterFunc, under mu, installs a copy holding one more
	// handler.
	mu       sync.Mutex
	handlers []atomic.Pointer[siteHandlers]
	siteMu   []sync.Mutex

	// transport, when non-nil, reaches the sites where they are hosted
	// (TCP daemons): every call, same-site included, ships through it,
	// and nothing registers here. Nil means the sites are registered on
	// this cluster and calls dispatch natively.
	transport Transport

	statMu sync.Mutex
	stats  Stats

	// maxFanout is the worker cap of a fan-out (fanout.go); <= 0 means
	// the default, breadth capped at defaultFanoutCap.
	maxFanout atomic.Int64
	// fan holds the fan-out helpers parked between rounds; Close stops
	// them.
	fan *fanHandle
	// linkRTT is a simulated per-message network round-trip applied to
	// cross-site calls, in nanoseconds (zero by default). See SetLinkRTT.
	// Atomic, so reading it never takes statMu, the meters' lock.
	linkRTT atomic.Int64

	// pairKeys precomputes the "from→to" PerPair map keys so metering a
	// message never formats a string.
	pairKeys [][]string
}

// siteHandlers is one site's handler table, in both forms; never
// changed once installed.
type siteHandlers struct {
	raw    map[string]RawHandler
	native map[string]NativeHandler
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
		stats:    Stats{PerPair: make(map[string]int64), BusyNanos: make([]int64, n), RecvBytes: make([]int64, n)},
		fan:      newFanHandle(),
	}
	for i := range c.handlers {
		c.handlers[i].Store(&siteHandlers{})
	}
	c.pairKeys = make([][]string, n)
	for i := 0; i < n; i++ {
		c.pairKeys[i] = make([]string, n)
		for j := 0; j < n; j++ {
			c.pairKeys[i][j] = fmt.Sprintf("%d→%d", i, j)
		}
	}
	return c
}

// NumSites returns n.
func (c *Cluster) NumSites() int { return c.n }

// clockBase is the origin of the busy meter's clock readings: a
// duration since it reads only the monotonic clock.
var clockBase = time.Now()

// busyRun runs h under the site's lock and returns its result with the
// time it took, read off the monotonic clock twice.
func busyRun[Arg, Res any](c *Cluster, to SiteID, h func(Arg) (Res, error), arg Arg) (res Res, busy time.Duration, err error) {
	c.siteMu[to].Lock()
	start := time.Since(clockBase)
	res, err = h(arg)
	busy = time.Since(clockBase) - start
	c.siteMu[to].Unlock()
	return res, busy, err
}

// Dispatch runs the registered handler for (to, method) on raw bytes:
// the entry point a site daemon serves its framed calls through.
func (c *Cluster) Dispatch(to SiteID, method string, data []byte) ([]byte, error) {
	if int(to) < 0 || int(to) >= c.n {
		return nil, fmt.Errorf("network: no site %d", to)
	}
	h, ok := c.handlers[to].Load().raw[method]
	if !ok {
		return nil, fmt.Errorf("network: site %d has no handler %q", to, method)
	}
	resp, busy, err := busyRun(c, to, h, data)
	c.statMu.Lock()
	c.stats.BusyNanos[to] += int64(busy)
	c.statMu.Unlock()
	return resp, err
}

// Methods returns the method names registered at site, sorted.
func (c *Cluster) Methods(site SiteID) []string {
	raw := c.handlers[site].Load().raw
	out := make([]string, 0, len(raw))
	for m := range raw {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// UseRemoteTransport installs a transport that reaches sites hosted at
// its remote end (the TCP sited deployment), on a cluster where no site
// is registered. Every call — same-site seeding traffic included — ships
// through it. The meters keep their definition: a cross-site call costs
// the payload bytes of its request and reply, which are the bytes this
// path ships, while the transport's own framing overhead is counted
// separately (see TCPTransport.FrameBytes).
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
// cross-site call (the paper's EC2 cluster pays real propagation delay on
// every message; in-process sites pay none). Same-site calls are
// unaffected, as is every meter — latency changes when replies arrive,
// not what is sent. With a nonzero RTT the benefit of the parallel
// scatter/gather engine is visible even on a single-core host: sequential
// fan-out pays breadth × RTT per round, parallel fan-out pays ~one RTT.
// A nonzero RTT is also what makes an in-process cluster's fan-outs run
// concurrently at all; at zero they run inline on the caller.
func (c *Cluster) SetLinkRTT(d time.Duration) { c.linkRTT.Store(int64(d)) }

// linkDelay sleeps one simulated round-trip, if configured.
func (c *Cluster) linkDelay() {
	if d := time.Duration(c.linkRTT.Load()); d > 0 {
		time.Sleep(d)
	}
}

// canWait reports whether a call on this cluster can wait on something
// other than a site lock: a remote transport's socket or a simulated
// link round-trip. Only then does a fan-out overlap its calls.
func (c *Cluster) canWait() bool { return c.transport != nil || c.linkRTT.Load() > 0 }

// Call sends a request from one site to another, metering it, and stores
// the reply in reply (a pointer, or nil to discard it). A call with
// from == to is local computation and never metered. A cross-site call
// counts one message and the payload bytes of its request and reply.
func (c *Cluster) Call(from, to SiteID, method string, args, reply any) error {
	if c.transport != nil {
		return c.callRemote(from, to, method, args, reply)
	}
	if int(to) < 0 || int(to) >= c.n {
		return fmt.Errorf("network: no site %d", to)
	}
	h, ok := c.handlers[to].Load().native[method]
	if !ok {
		return fmt.Errorf("network: site %d has no handler %q", to, method)
	}
	metered := from != to
	reqBytes := 0
	if metered {
		c.linkDelay()
		n, err := payloadSize(args)
		if err != nil {
			return fmt.Errorf("network: marshal %s args: %w", method, err)
		}
		reqBytes = n
	}
	resp, busy, err := busyRun(c, to, h, args)
	respBytes := 0
	if err == nil && metered {
		respBytes, err = payloadSize(resp)
		if err != nil {
			err = fmt.Errorf("network: marshal %s reply: %w", method, err)
		}
	}
	c.statMu.Lock()
	c.stats.BusyNanos[to] += int64(busy)
	if err == nil && metered {
		c.meterLocked(from, to, reqBytes, respBytes)
	}
	c.statMu.Unlock()
	if err != nil {
		return err
	}
	if reply != nil {
		reflect.ValueOf(reply).Elem().Set(reflect.ValueOf(resp))
	}
	return nil
}

// callRemote ships a call through the state-hosting transport. Same-site
// calls (local computation, e.g. seed-mode traffic) travel to the daemon
// but stay unmetered, exactly as they are free in process. The simulated
// link RTT is not charged: a real network is paying real latency.
func (c *Cluster) callRemote(from, to SiteID, method string, args, reply any) error {
	data, err := Marshal(args)
	if err != nil {
		return fmt.Errorf("network: marshal %s args: %w", method, err)
	}
	respData, err := c.transport.Invoke(to, method, data)
	if err != nil {
		return err
	}
	if from != to {
		c.statMu.Lock()
		c.meterLocked(from, to, len(data), len(respData))
		c.statMu.Unlock()
	}
	if reply == nil {
		return nil
	}
	if err := Unmarshal(respData, reply); err != nil {
		return fmt.Errorf("network: unmarshal %s reply: %w", method, err)
	}
	return nil
}

// scratch holds the encode buffers payloadSize reuses.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// payloadSize returns len(Marshal(v)) without keeping the bytes: what a
// natively dispatched value would have cost to ship.
func payloadSize(v any) (int, error) {
	bp := scratch.Get().(*[]byte)
	b, err := wire.Append((*bp)[:0], v)
	*bp = b
	scratch.Put(bp)
	return len(b), err
}

// meterLocked counts one cross-site message of the given payload sizes;
// the caller holds statMu.
func (c *Cluster) meterLocked(from, to SiteID, reqBytes, respBytes int) {
	c.stats.Messages++
	c.stats.Bytes += int64(reqBytes) + int64(respBytes)
	c.stats.PerPair[c.pairKeys[from][to]] += int64(reqBytes)
	c.stats.RecvBytes[to] += int64(reqBytes)
	if respBytes > 0 {
		c.stats.PerPair[c.pairKeys[to][from]] += int64(respBytes)
		c.stats.RecvBytes[from] += int64(respBytes)
	}
}

// AddEqids notes that n equivalence-class ids were shipped cross-site; the
// §4/§5 algorithms call it alongside the messages carrying them.
func (c *Cluster) AddEqids(n int) {
	c.statMu.Lock()
	c.stats.Eqids += int64(n)
	c.statMu.Unlock()
}

// Stats returns a snapshot of the meters.
func (c *Cluster) Stats() Stats {
	c.statMu.Lock()
	defer c.statMu.Unlock()
	snap := c.stats
	snap.PerPair = make(map[string]int64, len(c.stats.PerPair))
	for k, v := range c.stats.PerPair {
		snap.PerPair[k] = v
	}
	snap.BusyNanos = append([]int64(nil), c.stats.BusyNanos...)
	snap.RecvBytes = append([]int64(nil), c.stats.RecvBytes...)
	return snap
}

// ResetStats zeroes the meters.
func (c *Cluster) ResetStats() {
	c.statMu.Lock()
	defer c.statMu.Unlock()
	c.stats = Stats{
		PerPair:   make(map[string]int64),
		BusyNanos: make([]int64, c.n),
		RecvBytes: make([]int64, c.n),
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

// Marshal encodes a request or reply for the call path with the
// positional payload codec (internal/wire): self-contained bytes with no
// type descriptors, so the same payload can sit in a replay log, a delta
// log or a reply window and decode alone.
func Marshal(v any) ([]byte, error) { return wire.Marshal(v) }

// Unmarshal decodes a Marshal payload into v (a pointer), overwriting it
// in full.
func Unmarshal(data []byte, v any) error { return wire.Unmarshal(data, v) }

// RegisterFunc installs a typed handler for (site, method) in both its
// forms: the raw one a daemon's Dispatch serves framed calls through, and
// the native one in-process calls use. Handlers must not retain or mutate
// their arguments: on the native path they are shared with the caller.
// The reply is the other half of that contract: a native reply may share
// the site's memory until that site's next call of the method, which may
// reuse it, so a caller must be done with it by then. The raw form
// encodes the reply before the site's next call can run.
//
// The payload codec's plans for Req and Resp are built here, so a type
// the codec cannot carry panics at registration — start-up — rather than
// failing a call mid-round.
func RegisterFunc[Req, Resp any](c *Cluster, site SiteID, method string, f func(Req) (Resp, error)) {
	for _, t := range []reflect.Type{reflect.TypeOf((*Req)(nil)), reflect.TypeOf((*Resp)(nil))} {
		if err := wire.Register(t); err != nil {
			panic(fmt.Sprintf("network: handler %q: %v", method, err))
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.handlers[site].Load()
	if _, dup := old.raw[method]; dup {
		panic(fmt.Sprintf("network: site %d already has handler %q", site, method))
	}
	hs := &siteHandlers{raw: make(map[string]RawHandler, len(old.raw)+1), native: make(map[string]NativeHandler, len(old.native)+1)}
	maps.Copy(hs.raw, old.raw)
	maps.Copy(hs.native, old.native)
	hs.raw[method] = func(data []byte) ([]byte, error) {
		var req Req
		if err := Unmarshal(data, &req); err != nil {
			return nil, err
		}
		resp, err := f(req)
		if err != nil {
			return nil, err
		}
		return Marshal(resp)
	}
	hs.native[method] = func(args any) (any, error) {
		req, ok := args.(Req)
		if !ok {
			return nil, fmt.Errorf("network: %s: native call got %T", method, args)
		}
		return f(req)
	}
	c.handlers[site].Store(hs)
}
