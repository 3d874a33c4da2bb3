package main

import (
	"net"
	"sync"
	"time"

	"repro/internal/netwire"
	"repro/internal/sitehost"
)

// numSites and maxFanout size the deployment for a 2-core box: four
// sites, never more than two site connections busy at once.
const (
	numSites  = 4
	maxFanout = 2
)

// replyTimeout bounds a site's reply write, as sitehost.Server does.
const replyTimeout = 30 * time.Second

// msgsKeptPerSite is how many call/reply pairs each traced site keeps
// for the netwire replay. Per-site order is deterministic (calls to one
// site are serialised), the interleaving across sites is not.
const msgsKeptPerSite = 512

// site is one in-process site listener on 127.0.0.1:0.
type site struct {
	host  *sitehost.Host
	addr  string
	close func() error

	// Traced sites only: the first call/reply envelopes seen after
	// keepMsgs was armed.
	mu       sync.Mutex
	keepMsgs bool
	kept     []*netwire.Msg
}

// deployment is the set of sites behind one session.
type deployment struct {
	sites []*site
	rec   *recorder // nil in an untraced run
}

// deploy starts numSites listeners. Untraced runs use sitehost.Serve,
// the server a sited daemon runs; traced runs use a bench-owned accept
// loop that makes the same calls with spans around them.
func deploy(rec *recorder) (*deployment, error) {
	d := &deployment{rec: rec}
	for i := 0; i < numSites; i++ {
		s := &site{host: sitehost.NewHost()}
		if rec == nil {
			srv, err := sitehost.Serve(s.host, "127.0.0.1:0", nil)
			if err != nil {
				d.close()
				return nil, err
			}
			s.addr, s.close = srv.Addr(), srv.Close
		} else {
			idx := i
			srv, err := netwire.Listen("127.0.0.1:0", nil, netwire.ConnOptions{}, func(c *netwire.Conn) { d.handle(idx, c) })
			if err != nil {
				d.close()
				return nil, err
			}
			s.addr, s.close = srv.Addr(), srv.Close
		}
		d.sites = append(d.sites, s)
	}
	return d, nil
}

func (d *deployment) addrs() []string {
	out := make([]string, len(d.sites))
	for i, s := range d.sites {
		out[i] = s.addr
	}
	return out
}

// close stops every listener and waits for their goroutines.
func (d *deployment) close() {
	for _, s := range d.sites {
		s.close() // the listener is going away with the run; nothing to do on error
	}
}

// handle runs one site connection exactly as sitehost.Server.handle
// does — Bootstrap and StatusPayload on a hello, Dispatch on a call —
// with a span around each step while the recorder is on.
func (d *deployment) handle(idx int, c *netwire.Conn) {
	s, rec := d.sites[idx], d.rec
	for {
		msg, err := c.Recv(0)
		if err != nil {
			return
		}
		on := rec.on.Load()
		got := rec.now()
		cause := rec.cause[idx].Load()
		switch msg.Kind {
		case netwire.KindHello:
			errStr := ""
			var status []byte
			err := s.host.Bootstrap(msg.Data, msg.Reconnect)
			// Recorded even while the recorder is off: Open runs with it
			// off (seeding is tens of thousands of calls) but its four
			// bootstraps are wanted.
			rec.add(span{Parent: rec.root.Load(), Name: spanBootstrap, Site: idx, Start: got, End: rec.now()})
			if err != nil {
				errStr = err.Error()
			} else {
				status = s.host.StatusPayload()
			}
			if err := c.Send(&netwire.Msg{Kind: netwire.KindHelloAck, Data: status, Err: errStr}, replyTimeout); err != nil {
				return
			}
			if errStr != "" {
				return
			}
		case netwire.KindCall:
			chk := msg.Method == "chk.mark"
			var epoch uint64
			if on {
				if sent := rec.sentAt[idx].Load(); sent > 0 && sent < got {
					rec.add(span{Parent: cause, Name: spanRecv, Site: idx, Start: sent, End: got})
				}
				if chk {
					epoch = s.host.CheckpointEpoch()
				}
			}
			t0 := rec.now()
			data, errStr := s.host.Dispatch(msg.Seq, msg.Method, msg.Data)
			t1 := rec.now()
			reply := &netwire.Msg{Kind: netwire.KindReply, Seq: msg.Seq, Data: data, Err: errStr}
			err := c.Send(reply, replyTimeout)
			if on {
				sp := span{Parent: cause, Name: spanDispatch, Site: idx, Tag: msg.Method, Start: t0, End: t1}
				if chk {
					sp.Name = spanChkMark
					sp.Compacting = s.host.CheckpointEpoch() != epoch
				}
				rec.add(sp)
				rec.add(span{Parent: cause, Name: spanSend, Site: idx, Start: t1, End: rec.now()})
			}
			s.keep(msg, reply)
			if err != nil {
				return
			}
		default:
			return
		}
	}
}

func (s *site) keep(call, reply *netwire.Msg) {
	s.mu.Lock()
	if s.keepMsgs && len(s.kept) < 2*msgsKeptPerSite {
		s.kept = append(s.kept, call, reply)
	}
	s.mu.Unlock()
}

// armKeep makes every site start keeping envelopes.
func (d *deployment) armKeep() {
	for _, s := range d.sites {
		s.mu.Lock()
		s.keepMsgs = true
		s.mu.Unlock()
	}
}

// keptMsgs returns the kept envelopes, site by site.
func (d *deployment) keptMsgs() []*netwire.Msg {
	var out []*netwire.Msg
	for _, s := range d.sites {
		s.mu.Lock()
		out = append(out, s.kept...)
		s.mu.Unlock()
	}
	return out
}

// dialer is the session's TCP dialer in a traced run: a plain dial whose
// connection reports the driver's time blocked in Write and Read.
func (d *deployment) dialer() func(addr string, timeout time.Duration) (net.Conn, error) {
	siteOf := make(map[string]int, len(d.sites))
	for i, s := range d.sites {
		siteOf[s.addr] = i
	}
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		nc, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &tracedConn{Conn: nc, rec: d.rec, site: siteOf[addr]}, nil
	}
}

// tracedConn is the driver's end of one site connection.
type tracedConn struct {
	net.Conn
	rec  *recorder
	site int
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if !c.rec.on.Load() {
		return c.Conn.Write(p)
	}
	// Published before the bytes leave: the site may see the call
	// before Write returns here.
	id, t0 := c.rec.nextID.Add(1), c.rec.now()
	c.rec.cause[c.site].Store(id)
	c.rec.sentAt[c.site].Store(t0)
	n, err := c.Conn.Write(p)
	c.rec.add(span{ID: id, Parent: c.rec.root.Load(), Name: spanWrite, Site: c.site, Start: t0, End: c.rec.now()})
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	if !c.rec.on.Load() {
		return c.Conn.Read(p)
	}
	t0 := c.rec.now()
	n, err := c.Conn.Read(p)
	c.rec.add(span{Parent: c.rec.root.Load(), Name: spanWait, Site: c.site, Start: t0, End: c.rec.now()})
	return n, err
}
