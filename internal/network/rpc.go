package network

import (
	"context"
	"fmt"
	"net"
	"net/rpc"
	"sync"
)

// Envelope is the wire format of the RPC transport: a method name plus
// Marshal-encoded payload bytes. Each site runs its own rpc.Server; Invoke
// delivers the envelope to the registered handler on that site.
type Envelope struct {
	Method string
	Data   []byte
}

// siteService is the RPC-exported receiver for one site.
type siteService struct {
	c    *Cluster
	site SiteID
}

// Invoke is the single RPC method: it routes the envelope into the
// cluster's handler registry for this site.
func (s *siteService) Invoke(req Envelope, resp *Envelope) error {
	data, err := s.c.dispatch(s.site, req.Method, req.Data)
	if err != nil {
		return err
	}
	resp.Method = req.Method
	resp.Data = data
	return nil
}

// RPCTransport runs one net/rpc TCP server per site on 127.0.0.1 and
// routes Invoke calls through real sockets. It simulates a multi-node
// deployment within one process: site state is only reachable via RPC.
type RPCTransport struct {
	mu        sync.Mutex
	listeners []net.Listener
	clients   []*rpc.Client
	addrs     []string

	// wg tracks every server-side goroutine (accept loops and per-
	// connection servers); Close waits for all of them, so a closed
	// transport leaves no goroutines behind.
	wg sync.WaitGroup
	// cancel stops the context watcher of NewRPCTransportContext.
	cancel context.CancelFunc
}

// NewRPCTransport starts n servers (one per cluster site) on ephemeral
// localhost ports and connects a client to each. The caller must Close it.
func NewRPCTransport(c *Cluster) (*RPCTransport, error) {
	return NewRPCTransportContext(context.Background(), c)
}

// NewRPCTransportContext is NewRPCTransport under a context: when ctx is
// cancelled the transport closes itself (listeners, clients and every
// server goroutine), so a cancelled session tears its sites down without
// a separate Close call. Close remains safe to call either way.
func NewRPCTransportContext(ctx context.Context, c *Cluster) (*RPCTransport, error) {
	t := &RPCTransport{
		listeners: make([]net.Listener, c.n),
		clients:   make([]*rpc.Client, c.n),
		addrs:     make([]string, c.n),
	}
	for i := 0; i < c.n; i++ {
		srv := rpc.NewServer()
		if err := srv.RegisterName("Site", &siteService{c: c, site: SiteID(i)}); err != nil {
			t.Close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("network: listening for site %d: %w", i, err)
		}
		t.listeners[i] = ln
		t.addrs[i] = ln.Addr().String()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				t.wg.Add(1)
				go func() {
					defer t.wg.Done()
					srv.ServeConn(conn)
				}()
			}
		}()
	}
	for i := 0; i < c.n; i++ {
		client, err := rpc.Dial("tcp", t.addrs[i])
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("network: dialing site %d: %w", i, err)
		}
		t.clients[i] = client
	}
	if ctx.Done() != nil {
		watchCtx, cancel := context.WithCancel(ctx)
		t.cancel = cancel
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			<-watchCtx.Done()
			if ctx.Err() != nil {
				t.closeConns()
			}
		}()
	}
	return t, nil
}

// Addrs returns the listen addresses, one per site.
func (t *RPCTransport) Addrs() []string { return append([]string(nil), t.addrs...) }

// Invoke sends the envelope to the target site over TCP.
func (t *RPCTransport) Invoke(to SiteID, method string, data []byte) ([]byte, error) {
	t.mu.Lock()
	client := t.clients[to]
	t.mu.Unlock()
	if client == nil {
		return nil, fmt.Errorf("network: rpc transport has no client for site %d", to)
	}
	var resp Envelope
	if err := client.Call("Site.Invoke", Envelope{Method: method, Data: data}, &resp); err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// closeConns closes all clients and listeners (idempotent), unblocking
// the accept loops and per-connection servers.
func (t *RPCTransport) closeConns() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var first error
	for i, cl := range t.clients {
		if cl != nil {
			if err := cl.Close(); err != nil && err != rpc.ErrShutdown && first == nil {
				first = err
			}
			t.clients[i] = nil
		}
	}
	for i, ln := range t.listeners {
		if ln != nil {
			if err := ln.Close(); err != nil && first == nil {
				first = err
			}
			t.listeners[i] = nil
		}
	}
	return first
}

// Close shuts down all clients and listeners and waits until every
// server goroutine (accept loops, per-connection servers, the context
// watcher) has exited: after Close returns, the transport has leaked
// nothing.
func (t *RPCTransport) Close() error {
	err := t.closeConns()
	if t.cancel != nil {
		t.cancel()
	}
	t.wg.Wait()
	return err
}
