package network

import (
	"crypto/tls"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netwire"
	"repro/internal/wire"
	"repro/internal/xerr"
)

// TCPConfig configures a TCPTransport.
type TCPConfig struct {
	// Hellos holds the per-site bootstrap payloads (one per address),
	// sent as the first frame of every new connection so a fresh daemon
	// builds its site state and a live one verifies session identity.
	Hellos [][]byte
	// Dial controls connection establishment and retry; its Cancel
	// channel is overridden by the transport's own close signal.
	Dial netwire.DialConfig
	// CallTimeout bounds each request/reply exchange on the wire
	// (per-message read and write deadlines); 0 means 30s.
	CallTimeout time.Duration
	// MaxFrame bounds frame payloads; 0 means netwire.DefaultMaxFrame.
	MaxFrame int64
	// TLS, when non-nil, upgrades every connection.
	TLS *tls.Config
	// ReplayLog enables the bounded driver-side replay log for
	// checkpointed deployments: every successful call is retained until
	// the next acknowledged "chk.mark" batch delimiter. On reconnect, a
	// daemon whose hello-ack status shows it behind (restarted from a
	// checkpoint) is caught up by resending the logged calls under
	// their original sequence numbers — the replays are not re-metered,
	// so a rejoined deployment's protocol meters stay bit-identical to
	// a never-crashed one.
	ReplayLog bool
	// ReplayLimit caps the per-site replay log (entries retained since
	// the last acknowledged mark); 0 means DefaultReplayLimit. Growth
	// past the cap drops the log and latches an overflow flag: a daemon
	// that later recovers behind the dropped range fails its reconnect
	// with an error wrapping both xerr.ErrReplayOverflow and
	// xerr.ErrSiteDown, instead of being silently rejoined with a
	// truncated call tail. The next acknowledged mark clears the flag.
	ReplayLimit int
}

// DefaultReplayLimit is the per-site replay-log cap applied when
// TCPConfig.ReplayLimit is zero: generous enough for any protocol
// round between marks, small enough to bound driver memory.
const DefaultReplayLimit = 1024

// TCPTransport connects a driver to N sited processes, one framed TCP
// connection per site. The site STATE lives at the remote end: the owning Cluster must route every
// call — including same-site ones — through Invoke (see
// UseRemoteTransport).
//
// Calls are serialized per site under a per-site sequence number; the
// daemon deduplicates on it, so a call resent after a torn connection is
// never executed twice (at-most-once across reconnects). A connection
// that cannot be re-established within the dial budget surfaces
// xerr.ErrSiteDown.
type TCPTransport struct {
	sites []*siteConn
	cfg   TCPConfig

	frameBytes atomic.Int64
	replayed   atomic.Int64
	closed     chan struct{}
	closeOnce  sync.Once
}

// replayEntry is one logged call awaiting the next checkpoint mark.
type replayEntry struct {
	seq    uint64
	method string
	data   []byte
}

// siteConn is the driver's endpoint for one site. conn is written only
// under mu (by Invoke's dial/teardown paths) but read atomically by
// Close, which must pop a blocked exchange without waiting for mu.
type siteConn struct {
	addr  string
	hello []byte

	mu      sync.Mutex
	conn    atomic.Pointer[netwire.Conn]
	seq     uint64
	greeted bool // a handshake has succeeded at least once

	// Replay log (cfg.ReplayLog): the successful calls since the last
	// acknowledged "chk.mark", covering seqs (replayBase, seq]. behind /
	// behindFrom are set by ensureConn's handshake when the daemon's
	// status shows it recovered to an earlier seq. overflowed latches
	// when the log outgrew cfg.ReplayLimit and had to be dropped; it
	// clears at the next acknowledged mark. lastAck is the daemon's
	// hello-ack watermark from the most recent handshake.
	replay     []replayEntry
	replayBase uint64
	behind     bool
	behindFrom uint64
	overflowed bool
	lastAck    uint64
}

// NewTCPTransport builds a transport for the given site addresses.
// Connections are dialed lazily on first use (and re-dialed with backoff
// after failures); len(cfg.Hellos) must equal len(addrs).
func NewTCPTransport(addrs []string, cfg TCPConfig) (*TCPTransport, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("network: tcp transport needs at least one site address")
	}
	if len(cfg.Hellos) != len(addrs) {
		return nil, fmt.Errorf("network: tcp transport: %d hello payloads for %d addresses", len(cfg.Hellos), len(addrs))
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 30 * time.Second
	}
	if cfg.ReplayLimit <= 0 {
		cfg.ReplayLimit = DefaultReplayLimit
	}
	cfg.Dial.TLS = cfg.TLS
	t := &TCPTransport{cfg: cfg, closed: make(chan struct{})}
	for i, a := range addrs {
		t.sites = append(t.sites, &siteConn{addr: a, hello: cfg.Hellos[i]})
	}
	return t, nil
}

// FrameBytes returns the physical bytes this transport has put on and
// taken off its sockets: frame headers, binary envelopes, call and reply
// payloads (same-site seeding and ∆D delivery included), handshakes.
// This is what a real deployment's sockets carry, metered apart from the
// protocol bytes the paper counts.
func (t *TCPTransport) FrameBytes() int64 { return t.frameBytes.Load() }

// ReplayedCalls returns how many logged calls have been resent to
// rejoining daemons — the wire cost of warm restarts.
func (t *TCPTransport) ReplayedCalls() int64 { return t.replayed.Load() }

// SiteCalls returns the per-site call counts (the last assigned
// sequence numbers) — deterministic cost accounting for the recovery
// benchmarks.
func (t *TCPTransport) SiteCalls() []uint64 {
	out := make([]uint64, len(t.sites))
	for i, sc := range t.sites {
		sc.mu.Lock()
		out[i] = sc.seq
		sc.mu.Unlock()
	}
	return out
}

// siteDown wraps an error as an errors.Is-compatible ErrSiteDown.
func siteDown(site SiteID, addr string, err error) error {
	return fmt.Errorf("network: site %d (%s): %w: %v", site, addr, xerr.ErrSiteDown, err)
}

// ensureConn dials and handshakes sc if needed. Caller holds sc.mu.
func (t *TCPTransport) ensureConn(site SiteID, sc *siteConn) error {
	if sc.conn.Load() != nil {
		return nil
	}
	dial := t.cfg.Dial
	dial.Cancel = t.closed
	conn, err := netwire.Dial(sc.addr, dial, netwire.ConnOptions{
		MaxFrame: t.cfg.MaxFrame,
		Counter:  &t.frameBytes,
	})
	if err != nil {
		return siteDown(site, sc.addr, err)
	}
	hello := &netwire.Msg{Kind: netwire.KindHello, Data: sc.hello, Reconnect: sc.greeted}
	if err := conn.Send(hello, t.cfg.CallTimeout); err != nil {
		conn.Close()
		return siteDown(site, sc.addr, err)
	}
	ack, err := conn.Recv(t.cfg.CallTimeout)
	if err != nil {
		conn.Close()
		return siteDown(site, sc.addr, err)
	}
	if ack.Kind != netwire.KindHelloAck {
		conn.Close()
		return siteDown(site, sc.addr, fmt.Errorf("unexpected handshake reply kind %d", ack.Kind))
	}
	if ack.Err != "" {
		conn.Close()
		// A rejected hello is not transient: the daemon lost its state
		// (stale reconnect) or hosts a different session. Retrying will
		// not help, so surface it as the site being down.
		return siteDown(site, sc.addr, fmt.Errorf("handshake rejected: %s", ack.Err))
	}
	if t.cfg.ReplayLog {
		var last uint64
		// The status is a sitehost.HelloStatus, whose positional
		// encoding is its one field's: the daemon's last served seq.
		if len(ack.Data) > 0 {
			if err := wire.Unmarshal(ack.Data, &last); err != nil {
				conn.Close()
				return siteDown(site, sc.addr, fmt.Errorf("bad hello status: %v", err))
			}
		}
		sc.lastAck = last
		// sc.seq is the in-flight call; the daemon should have served
		// everything before it. A daemon behind the replay log's floor
		// recovered past what we can resend — that site is lost.
		if last+1 < sc.seq {
			if sc.overflowed {
				conn.Close()
				return fmt.Errorf(
					"network: site %d (%s): %w: daemon recovered to seq %d but the driver's %w (cap %d) dropped the unacked tail",
					site, sc.addr, xerr.ErrSiteDown, last, xerr.ErrReplayOverflow, t.cfg.ReplayLimit)
			}
			if last < sc.replayBase {
				conn.Close()
				return siteDown(site, sc.addr, fmt.Errorf(
					"daemon recovered to seq %d but the replay log starts after seq %d", last, sc.replayBase))
			}
			sc.behind, sc.behindFrom = true, last
		}
	}
	sc.conn.Store(conn)
	sc.greeted = true
	return nil
}

// catchUp resends the logged calls a rejoining daemon missed, in order,
// under their original sequence numbers. Caller holds sc.mu and a live
// connection. Transport errors return to Invoke's retry loop (the next
// handshake re-reports how far the daemon got); a replayed call failing
// at the application level means divergence and also bubbles up, going
// terminal once the retry budget is spent.
func (t *TCPTransport) catchUp(sc *siteConn) error {
	if !sc.behind {
		return nil
	}
	conn := sc.conn.Load()
	for _, e := range sc.replay {
		if e.seq <= sc.behindFrom {
			continue
		}
		reply, err := t.exchange(conn, &netwire.Msg{Kind: netwire.KindCall, Seq: e.seq, Method: e.method, Data: e.data})
		if err != nil {
			return err
		}
		if reply.Err != "" {
			return fmt.Errorf("replayed call %s (seq %d) failed: %s", e.method, e.seq, reply.Err)
		}
		t.replayed.Add(1)
	}
	sc.behind = false
	return nil
}

// Invoke ships one call to the site's daemon and returns the reply
// payload. Transport failures are retried — reconnecting with backoff
// and resending under the same sequence number (the daemon deduplicates)
// — until the dial budget is exhausted, then surfaced as ErrSiteDown.
func (t *TCPTransport) Invoke(to SiteID, method string, data []byte) ([]byte, error) {
	if int(to) < 0 || int(to) >= len(t.sites) {
		return nil, fmt.Errorf("network: tcp transport has no site %d", to)
	}
	sc := t.sites[to]
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.seq++
	msg := &netwire.Msg{Kind: netwire.KindCall, Seq: sc.seq, Method: method, Data: data}

	var lastErr error
	for attempt := 0; ; attempt++ {
		select {
		case <-t.closed:
			return nil, fmt.Errorf("network: tcp transport: %w (last error: %v)", xerr.ErrClosed, lastErr)
		default:
		}
		if err := t.ensureConn(to, sc); err != nil {
			return nil, err // dial budget already applied inside
		}
		reply, err := t.catchUpThenExchange(sc, msg)
		if err == nil {
			if reply.Err != "" {
				return nil, xerr.Rewrap(reply.Err)
			}
			if t.cfg.ReplayLog {
				if method == "chk.mark" {
					// The daemon has durably marked this batch boundary:
					// everything at or before it can never need replay.
					// Cleared, not just truncated: a batch with fewer calls
					// than an earlier one would otherwise keep that one's
					// payloads alive in the slack of the backing array.
					clear(sc.replay)
					sc.replay = sc.replay[:0]
					sc.replayBase = msg.Seq
					sc.overflowed = false
				} else {
					sc.replay = append(sc.replay, replayEntry{seq: msg.Seq, method: method, data: data})
					if len(sc.replay) > t.cfg.ReplayLimit {
						// The log outgrew its bound without a mark pruning
						// it. Drop it and latch the overflow: memory stays
						// bounded, and a daemon that later recovers behind
						// this point fails loudly (ensureConn) instead of
						// rejoining with a silently truncated call tail.
						clear(sc.replay)
						sc.replay = sc.replay[:0]
						sc.replayBase = msg.Seq
						sc.overflowed = true
					}
				}
			}
			return reply.Data, nil
		}
		// Torn connection: drop it and go back through the dial path,
		// whose budget and backoff bound the retry loop. The sequence
		// number makes the resend idempotent. A second consecutive
		// failure on a freshly re-established connection is terminal —
		// ensureConn already spent the dial budget.
		lastErr = err
		if c := sc.conn.Swap(nil); c != nil {
			c.Close()
		}
		if attempt >= 1 {
			return nil, siteDown(to, sc.addr, lastErr)
		}
	}
}

// catchUpThenExchange replays any missed calls and then performs the
// current one. Caller holds sc.mu.
func (t *TCPTransport) catchUpThenExchange(sc *siteConn, msg *netwire.Msg) (*netwire.Msg, error) {
	if err := t.catchUp(sc); err != nil {
		return nil, err
	}
	return t.exchange(sc.conn.Load(), msg)
}

// exchange performs one send/recv on the live connection. Caller holds
// sc.mu.
func (t *TCPTransport) exchange(conn *netwire.Conn, msg *netwire.Msg) (*netwire.Msg, error) {
	if err := conn.Send(msg, t.cfg.CallTimeout); err != nil {
		return nil, err
	}
	reply, err := conn.Recv(t.cfg.CallTimeout)
	if err != nil {
		return nil, err
	}
	if reply.Kind != netwire.KindReply || reply.Seq != msg.Seq {
		return nil, fmt.Errorf("netwire: out-of-order reply (kind %d, seq %d, want %d)", reply.Kind, reply.Seq, msg.Seq)
	}
	return reply, nil
}

// Resume primes a freshly built transport with the per-site sequence
// watermarks a restarted driver recovered from its journal. Each site's
// next call continues the original numbering, and the first handshake
// goes out as a Reconnect hello — the daemons recognize the session and
// keep their state instead of treating the driver as a new deployment.
// Must be called before the first Invoke.
func (t *TCPTransport) Resume(seqs []uint64) error {
	if len(seqs) != len(t.sites) {
		return fmt.Errorf("network: resume: %d watermarks for %d sites", len(seqs), len(t.sites))
	}
	for i, sc := range t.sites {
		sc.mu.Lock()
		if sc.conn.Load() != nil || sc.seq != 0 {
			sc.mu.Unlock()
			return fmt.Errorf("network: resume: site %d already in use", i)
		}
		sc.seq = seqs[i]
		sc.replayBase = seqs[i]
		sc.greeted = true
		sc.mu.Unlock()
	}
	return nil
}

// Rewind rolls the per-site sequence counters back to the given
// watermarks so an interrupted round can be re-driven under its
// original numbers: daemons that already served a call answer from
// their dedupe windows, daemons that never saw it execute it once.
// Replay-log entries past each watermark are dropped (the re-driven
// calls re-log themselves).
func (t *TCPTransport) Rewind(seqs []uint64) error {
	if len(seqs) != len(t.sites) {
		return fmt.Errorf("network: rewind: %d watermarks for %d sites", len(seqs), len(t.sites))
	}
	for i, sc := range t.sites {
		sc.mu.Lock()
		if seqs[i] > sc.seq {
			sc.mu.Unlock()
			return fmt.Errorf("network: rewind: site %d watermark %d ahead of seq %d", i, seqs[i], sc.seq)
		}
		sc.seq = seqs[i]
		keep := len(sc.replay)
		for keep > 0 && sc.replay[keep-1].seq > seqs[i] {
			keep--
		}
		// Cleared, not just cut off: the dropped entries' payloads would
		// otherwise stay reachable through the backing array's slack.
		clear(sc.replay[keep:])
		sc.replay = sc.replay[:keep]
		sc.mu.Unlock()
	}
	return nil
}

// Probe performs (at most) a handshake with one site and returns the
// daemon's hello-ack watermark — the highest call sequence it has
// served. A resumed driver probes every site before accepting writes:
// a watermark behind the journal's means lost site state, surfaced now
// rather than as divergence later. Requires ReplayLog (the status ack).
func (t *TCPTransport) Probe(site SiteID) (uint64, error) {
	if int(site) < 0 || int(site) >= len(t.sites) {
		return 0, fmt.Errorf("network: tcp transport has no site %d", site)
	}
	sc := t.sites[site]
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if err := t.ensureConn(site, sc); err != nil {
		return 0, err
	}
	return sc.lastAck, nil
}

// Close tears every connection down and aborts in-flight dial retries.
// Safe to call concurrently with Invoke; idempotent.
func (t *TCPTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		for _, sc := range t.sites {
			// Close the live conn without taking sc.mu: a blocked
			// exchange must be popped, not waited for.
			if c := sc.conn.Load(); c != nil {
				c.Close()
			}
		}
	})
	return nil
}
