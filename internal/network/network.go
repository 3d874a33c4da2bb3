// Package network is the distributed substrate the detection algorithms
// run on. The paper evaluates on an Amazon EC2 cluster; here each site is
// an isolated state container and every cross-site byte flows through a
// Cluster, which meters messages, payload bytes and shipped eqids — the
// quantities behind the paper's Figs. 9(c), 9(h) and 10.
//
// Transports: an in-process loopback (deterministic, used by tests and
// benchmarks), a net/rpc-over-TCP transport in which every site runs its
// own RPC server goroutine, and the framed TCP transport to site daemons
// (tcp.go). Whatever crosses a transport is a Marshal payload — the
// descriptor-free positional encoding of internal/wire. The protocol
// byte meters are defined separately, on long-lived per-pair gob streams
// (meterEncode), so they are identical on the loopback, which ships no
// bytes at all, and on the daemon deployment; the RPC transport meters
// the payload bytes it ships.
//
// Fan-outs — one coordinator addressing many sites — go through the
// concurrent scatter/gather engine (Fanout, Broadcast, Gather in
// fanout.go): bounded workers, deterministic reply order and error
// selection, and meters that stay exact and identical whether a round
// runs with one worker or many. SetLinkRTT adds a simulated per-message
// network round-trip, the cost a real deployment pays and parallel
// fan-out overlaps.
package network

import (
	"encoding/gob"
	"fmt"
	"io"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/wire"
)

// SiteID identifies a site (fragment host) in [0, n).
type SiteID int

// RawHandler is a registered message handler: Marshal-encoded request
// bytes in, Marshal-encoded reply bytes out.
type RawHandler func(data []byte) ([]byte, error)

// NativeHandler is the unserialized twin of a RawHandler, used for
// same-site calls where no bytes cross the wire: no marshalling cost, no
// metering (a site talking to itself is local computation).
type NativeHandler func(args any) (any, error)

// Transport delivers a request to a site's handler and returns the reply.
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

	mu       sync.Mutex
	registry []map[string]RawHandler
	native   []map[string]NativeHandler
	siteMu   []sync.Mutex
	// replyProto maps a method to a constructor of its typed reply, so
	// the remote path can decode (and meter) replies even when the
	// caller passed a nil reply. Populated by RegisterFunc.
	replyProto map[string]func() any

	transport Transport
	// remote marks a transport that HOSTS the site state (TCP daemons):
	// every call, same-site included, must ship through it, and the
	// local registry is only a reply-type catalogue.
	remote bool

	statMu sync.Mutex
	stats  Stats

	// maxFanout is the default worker cap for Fanout/Broadcast/Gather
	// (see fanout.go); <= 0 means GOMAXPROCS.
	maxFanout int
	// linkRTT is a simulated per-message network round-trip applied to
	// cross-site calls (zero by default). See SetLinkRTT.
	linkRTT time.Duration

	// meterMu guards the per-pair metering stream map. Each (from, to)
	// pair has a long-lived gob stream, so type descriptors are paid
	// once per pair — the amortized cost of gob over a real connection,
	// not a per-message artifact. The streams themselves carry their own
	// locks: concurrent fan-outs to distinct sites encode in parallel.
	meterMu sync.Mutex
	meters  map[[2]SiteID]*meterStream

	// pairKeys precomputes the "from→to" PerPair map keys so metering a
	// message never formats a string.
	pairKeys [][]string
}

// meterStream measures the wire size of payloads on one directed pair.
type meterStream struct {
	mu  sync.Mutex
	cw  countWriter
	enc *gob.Encoder
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// meterEncode returns the number of bytes payload would occupy on the
// (from, to) gob stream.
func (c *Cluster) meterEncode(from, to SiteID, payload any) (int, error) {
	c.meterMu.Lock()
	key := [2]SiteID{from, to}
	ms, ok := c.meters[key]
	if !ok {
		ms = &meterStream{}
		ms.enc = gob.NewEncoder(&ms.cw)
		c.meters[key] = ms
	}
	c.meterMu.Unlock()
	ms.mu.Lock()
	defer ms.mu.Unlock()
	before := ms.cw.n
	if err := ms.enc.Encode(payload); err != nil {
		return 0, err
	}
	return int(ms.cw.n - before), nil
}

// PinMeterTypes registers each value's type (and the types nested in it)
// with encoding/gob's process-global registry, in order. The byte meters
// are sizes on gob streams, and a type descriptor's size depends on the
// id gob assigns at first encode — so protocol packages pin their
// message types at init, making the meters a pure function of the
// workload instead of which subsystem happened to encode first.
func PinMeterTypes(vals []any) {
	enc := gob.NewEncoder(io.Discard)
	for _, v := range vals {
		if err := enc.Encode(v); err != nil {
			panic(err)
		}
	}
}

// NewCluster creates a cluster of n sites wired to the in-process
// loopback transport.
func NewCluster(n int) *Cluster {
	if n <= 0 {
		panic(fmt.Sprintf("network: cluster needs at least one site, got %d", n))
	}
	c := &Cluster{
		n:          n,
		registry:   make([]map[string]RawHandler, n),
		native:     make([]map[string]NativeHandler, n),
		siteMu:     make([]sync.Mutex, n),
		replyProto: make(map[string]func() any),
		stats:      Stats{PerPair: make(map[string]int64), BusyNanos: make([]int64, n), RecvBytes: make([]int64, n)},
	}
	for i := range c.registry {
		c.registry[i] = make(map[string]RawHandler)
		c.native[i] = make(map[string]NativeHandler)
	}
	c.pairKeys = make([][]string, n)
	for i := 0; i < n; i++ {
		c.pairKeys[i] = make([]string, n)
		for j := 0; j < n; j++ {
			c.pairKeys[i][j] = fmt.Sprintf("%d→%d", i, j)
		}
	}
	c.meters = make(map[[2]SiteID]*meterStream)
	c.transport = &loopback{c: c}
	return c
}

// NumSites returns n.
func (c *Cluster) NumSites() int { return c.n }

// Register installs a handler for (site, method). Protocol packages call
// this while wiring their per-site state.
func (c *Cluster) Register(site SiteID, method string, h RawHandler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.registry[site][method]; dup {
		panic(fmt.Sprintf("network: site %d already has handler %q", site, method))
	}
	c.registry[site][method] = h
}

// dispatch runs the registered handler under the site's lock; it is the
// single entry point used by every transport.
func (c *Cluster) dispatch(to SiteID, method string, data []byte) ([]byte, error) {
	if int(to) < 0 || int(to) >= c.n {
		return nil, fmt.Errorf("network: no site %d", to)
	}
	c.mu.Lock()
	h, ok := c.registry[to][method]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("network: site %d has no handler %q", to, method)
	}
	c.siteMu[to].Lock()
	start := time.Now()
	resp, err := h(data)
	elapsed := time.Since(start)
	c.siteMu[to].Unlock()
	c.statMu.Lock()
	c.stats.BusyNanos[to] += elapsed.Nanoseconds()
	c.statMu.Unlock()
	return resp, err
}

// UseTransport swaps the transport (e.g. for RPC mode). The caller owns
// closing the previous transport.
func (c *Cluster) UseTransport(t Transport) { c.transport = t }

// UseRemoteTransport installs a transport that hosts the site state at
// its remote end (the TCP sited deployment). Every call — same-site
// seeding traffic included — ships through it; the local site replicas
// stay empty. Metering is unchanged: cross-site payloads are measured on
// the same per-pair gob streams as the loopback, so the protocol meters
// stay bit-identical, while the transport's own framing overhead is
// counted separately (see TCPTransport.FrameBytes).
func (c *Cluster) UseRemoteTransport(t Transport) {
	c.transport = t
	c.remote = true
}

// Remote reports whether the site state lives behind the transport.
func (c *Cluster) Remote() bool { return c.remote }

// Dispatch runs the registered handler for (to, method) on raw bytes:
// the entry point a site daemon serves its framed calls through.
func (c *Cluster) Dispatch(to SiteID, method string, data []byte) ([]byte, error) {
	return c.dispatch(to, method, data)
}

// FrameBytes returns the transport's physical framing overhead in bytes
// (0 for transports without sockets or without the meter).
func (c *Cluster) FrameBytes() int64 {
	if fb, ok := c.transport.(interface{ FrameBytes() int64 }); ok {
		return fb.FrameBytes()
	}
	return 0
}

// SetLinkRTT sets a simulated network round-trip charged to every
// cross-site call (the paper's EC2 cluster pays real propagation delay on
// every message; the in-process loopback pays none). Same-site calls are
// unaffected, as is every meter — latency changes when replies arrive,
// not what is sent. With a nonzero RTT the benefit of the parallel
// scatter/gather engine is visible even on a single-core host: sequential
// fan-out pays breadth × RTT per round, parallel fan-out pays ~one RTT.
func (c *Cluster) SetLinkRTT(d time.Duration) {
	c.statMu.Lock()
	c.linkRTT = d
	c.statMu.Unlock()
}

// linkDelay sleeps one simulated round-trip, if configured.
func (c *Cluster) linkDelay() {
	c.statMu.Lock()
	d := c.linkRTT
	c.statMu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

// callNative dispatches to a registered native handler under the site's
// lock, charging the site's busy meter. ok is false when no native
// handler exists for (to, method).
func (c *Cluster) callNative(to SiteID, method string, args any) (resp any, ok bool, err error) {
	c.mu.Lock()
	h, found := c.native[to][method]
	c.mu.Unlock()
	if !found {
		return nil, false, nil
	}
	c.siteMu[to].Lock()
	start := time.Now()
	resp, err = h(args)
	elapsed := time.Since(start)
	c.siteMu[to].Unlock()
	c.statMu.Lock()
	c.stats.BusyNanos[to] += elapsed.Nanoseconds()
	c.statMu.Unlock()
	return resp, true, err
}

func setReply(reply, resp any) {
	if reply != nil {
		reflect.ValueOf(reply).Elem().Set(reflect.ValueOf(resp))
	}
}

// Call sends a request from one site to another through the transport,
// metering it, and decodes the reply into reply (a pointer). A call with
// from == to is local computation: dispatched directly via the native
// handler when one exists, never metered. Cross-site calls on the
// loopback transport dispatch natively too, with payload sizes measured
// on long-lived per-pair gob streams — the same bytes a persistent TCP
// connection would carry.
func (c *Cluster) Call(from, to SiteID, method string, args, reply any) error {
	if c.remote {
		return c.callRemote(from, to, method, args, reply)
	}
	if from == to {
		if resp, ok, err := c.callNative(to, method, args); ok {
			if err != nil {
				return err
			}
			setReply(reply, resp)
			return nil
		}
		data, err := Marshal(args)
		if err != nil {
			return fmt.Errorf("network: marshal %s args: %w", method, err)
		}
		respData, err := c.dispatch(to, method, data)
		if err != nil {
			return err
		}
		if reply == nil {
			return nil
		}
		return Unmarshal(respData, reply)
	}

	c.linkDelay()
	if _, isLoop := c.transport.(*loopback); isLoop {
		if resp, ok, err := c.nativeMetered(from, to, method, args); ok {
			if err != nil {
				return err
			}
			setReply(reply, resp)
			return nil
		}
	}

	data, err := Marshal(args)
	if err != nil {
		return fmt.Errorf("network: marshal %s args: %w", method, err)
	}
	respData, err := c.transport.Invoke(to, method, data)
	if err != nil {
		return err
	}
	c.meter(from, to, len(data), len(respData))
	if reply == nil {
		return nil
	}
	if err := Unmarshal(respData, reply); err != nil {
		return fmt.Errorf("network: unmarshal %s reply: %w", method, err)
	}
	return nil
}

// callRemote ships a call through a state-hosting transport. Same-site
// calls (local computation, e.g. seed-mode traffic) travel to the daemon
// but stay unmetered, exactly as they are free on the loopback.
// Cross-site calls are metered on the per-pair gob streams — encoding
// the same native values in the same order as the loopback run — so
// Messages/Bytes/PerPair/RecvBytes stay bit-identical to the simulated
// baselines; the socket's own framing overhead is the transport's
// separate FrameBytes meter. The simulated link RTT is not charged: a
// real network is paying real latency.
func (c *Cluster) callRemote(from, to SiteID, method string, args, reply any) error {
	metered := from != to
	reqBytes := 0
	if metered {
		if rb, err := c.meterEncode(from, to, args); err == nil {
			reqBytes = rb
		} else {
			return fmt.Errorf("network: meter %s args: %w", method, err)
		}
	}
	data, err := Marshal(args)
	if err != nil {
		return fmt.Errorf("network: marshal %s args: %w", method, err)
	}
	respData, err := c.transport.Invoke(to, method, data)
	if err != nil {
		return err
	}
	// Decode into the caller's reply, or — for metering parity when the
	// caller passed nil — into the method's registered reply prototype
	// (the loopback meters every handler's return value, fire-and-forget
	// calls included).
	var respVal any
	if reply != nil {
		if err := Unmarshal(respData, reply); err != nil {
			return fmt.Errorf("network: unmarshal %s reply: %w", method, err)
		}
		respVal = reply
	} else if metered {
		c.mu.Lock()
		proto := c.replyProto[method]
		c.mu.Unlock()
		if proto != nil {
			p := proto()
			if err := Unmarshal(respData, p); err == nil {
				respVal = p
			}
		}
	}
	if metered {
		respBytes := 0
		if respVal != nil {
			if rb, err := c.meterEncode(to, from, respVal); err == nil {
				respBytes = rb
			}
		}
		c.meter(from, to, reqBytes, respBytes)
	}
	return nil
}

// nativeMetered performs a cross-site call without serializing the
// payload for transport (loopback), while still measuring its exact wire
// size on the pair's gob stream.
func (c *Cluster) nativeMetered(from, to SiteID, method string, args any) (any, bool, error) {
	reqBytes, err := c.meterEncode(from, to, args)
	if err != nil {
		return nil, false, nil // fall back to the raw path
	}
	resp, ok, err := c.callNative(to, method, args)
	if !ok {
		return nil, false, nil
	}
	if err != nil {
		return nil, true, err
	}
	respBytes := 0
	if resp != nil {
		if rb, err := c.meterEncode(to, from, resp); err == nil {
			respBytes = rb
		}
	}
	c.meter(from, to, reqBytes, respBytes)
	return resp, true, nil
}

func (c *Cluster) meter(from, to SiteID, reqBytes, respBytes int) {
	c.statMu.Lock()
	defer c.statMu.Unlock()
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

// Close shuts the transport down.
func (c *Cluster) Close() error { return c.transport.Close() }

// loopback is the in-process transport: dispatch without leaving the
// address space. Cross-site calls take Call's native path and never
// reach it; what does arrive is a Marshal payload, as on every
// transport.
type loopback struct{ c *Cluster }

func (l *loopback) Invoke(to SiteID, method string, data []byte) ([]byte, error) {
	return l.c.dispatch(to, method, data)
}

func (l *loopback) Close() error { return nil }

// Marshal encodes a request or reply for the call path with the
// positional payload codec (internal/wire): self-contained bytes with no
// type descriptors, so the same payload can sit in a replay log, a delta
// log or a reply window and decode alone.
func Marshal(v any) ([]byte, error) { return wire.Marshal(v) }

// Unmarshal decodes a Marshal payload into v (a pointer), overwriting it
// in full.
func Unmarshal(data []byte, v any) error { return wire.Unmarshal(data, v) }

// Handler adapts a typed request/response function into a RawHandler.
func Handler[Req, Resp any](f func(Req) (Resp, error)) RawHandler {
	return func(data []byte) ([]byte, error) {
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
}

// RegisterFunc installs a typed handler for (site, method) on both the
// serialized path (cross-site transport) and the native path (same-site
// calls). Handlers must not retain or mutate their arguments: on the
// native path they are shared with the caller.
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
	c.Register(site, method, Handler(f))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.replyProto[method] = func() any { return new(Resp) }
	c.native[site][method] = func(args any) (any, error) {
		req, ok := args.(Req)
		if !ok {
			return nil, fmt.Errorf("network: %s: native call got %T", method, args)
		}
		return f(req)
	}
}

// Ask is a typed convenience wrapper around Cluster.Call.
func Ask[Resp any, Req any](c *Cluster, from, to SiteID, method string, req Req) (Resp, error) {
	var resp Resp
	err := c.Call(from, to, method, req, &resp)
	return resp, err
}
