package network

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/netwire"
	"repro/internal/wire"
	"repro/internal/xerr"
)

// deadAddr returns a loopback address that is not listening.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestTCPTransportCloseAbortsDialRetry pins the teardown guarantee the
// goroutine-leak tests rely on: an Invoke stuck in its dial-retry
// backoff against an unreachable daemon is popped promptly by Close —
// no waiting out a long retry budget, no leaked dialer.
func TestTCPTransportCloseAbortsDialRetry(t *testing.T) {
	tr, err := NewTCPTransport([]string{deadAddr(t)}, TCPConfig{
		Hellos: [][]byte{[]byte("hello")},
		Dial:   netwire.DialConfig{Budget: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := tr.Invoke(0, "m", nil)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let it enter the backoff loop
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Invoke against dead site succeeded")
		}
		if !errors.Is(err, xerr.ErrClosed) && !errors.Is(err, xerr.ErrSiteDown) {
			t.Fatalf("aborted Invoke: got %v, want ErrClosed or ErrSiteDown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not abort the dial retry")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after Close during dial retry\n%s",
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPTransportBudgetExhaustion asserts an unreachable daemon yields
// a wrapped ErrSiteDown once the dial budget runs out.
func TestTCPTransportBudgetExhaustion(t *testing.T) {
	tr, err := NewTCPTransport([]string{deadAddr(t)}, TCPConfig{
		Hellos: [][]byte{[]byte("hello")},
		Dial:   netwire.DialConfig{Budget: 200 * time.Millisecond, AttemptTimeout: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Invoke(0, "m", nil); !errors.Is(err, xerr.ErrSiteDown) {
		t.Fatalf("Invoke: got %v, want ErrSiteDown", err)
	}
}

// fakeDaemon is a minimal in-test sited stand-in: it answers hellos
// with a configurable LastSeq status (what a daemon restarted from a
// checkpoint would report) and acks every call. dropConns simulates a
// daemon crash/restart at the configured watermark.
type fakeDaemon struct {
	srv *netwire.Server

	mu      sync.Mutex
	lastSeq uint64
	conns   []*netwire.Conn
	calls   []uint64 // every executed (non-duplicate-suppressed) call seq
}

func startFakeDaemon(t *testing.T) *fakeDaemon {
	t.Helper()
	d := &fakeDaemon{}
	srv, err := netwire.Listen("127.0.0.1:0", nil, netwire.ConnOptions{}, d.serve)
	if err != nil {
		t.Fatal(err)
	}
	d.srv = srv
	t.Cleanup(func() { srv.Close() })
	return d
}

func (d *fakeDaemon) serve(c *netwire.Conn) {
	d.mu.Lock()
	d.conns = append(d.conns, c)
	d.mu.Unlock()
	for {
		msg, err := c.Recv(time.Second)
		if err != nil {
			return
		}
		switch msg.Kind {
		case netwire.KindHello:
			d.mu.Lock()
			last := d.lastSeq
			d.mu.Unlock()
			var data []byte
			if last > 0 {
				data, _ = wire.Marshal(struct{ LastSeq uint64 }{last})
			}
			c.Send(&netwire.Msg{Kind: netwire.KindHelloAck, Data: data}, time.Second)
		case netwire.KindCall:
			d.mu.Lock()
			if msg.Seq > d.lastSeq {
				d.lastSeq = msg.Seq
				d.calls = append(d.calls, msg.Seq)
			}
			d.mu.Unlock()
			c.Send(&netwire.Msg{Kind: netwire.KindReply, Seq: msg.Seq}, time.Second)
		}
	}
}

// restartAt tears down every live connection and rewinds the daemon's
// reported watermark — the driver's next handshake sees a daemon
// recovered from a checkpoint taken at seq last.
func (d *fakeDaemon) restartAt(last uint64) {
	d.mu.Lock()
	conns := d.conns
	d.conns = nil
	d.lastSeq = last
	d.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func replayDialConfig() netwire.DialConfig {
	return netwire.DialConfig{Budget: 2 * time.Second, AttemptTimeout: 500 * time.Millisecond}
}

// TestTCPTransportReplayAtCapBoundary pins the replay-log bound's exact
// boundary: a log holding precisely ReplayLimit entries has NOT
// overflowed — a daemon restarted from its pre-batch checkpoint is
// still caught up by replay.
func TestTCPTransportReplayAtCapBoundary(t *testing.T) {
	d := startFakeDaemon(t)
	tr, err := NewTCPTransport([]string{d.srv.Addr()}, TCPConfig{
		Hellos:      [][]byte{[]byte("h")},
		Dial:        replayDialConfig(),
		ReplayLog:   true,
		ReplayLimit: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	for i := 0; i < 3; i++ { // exactly the cap
		if _, err := tr.Invoke(0, "op", nil); err != nil {
			t.Fatal(err)
		}
	}
	d.restartAt(0) // daemon loses everything since the (empty) checkpoint

	if _, err := tr.Invoke(0, "op", nil); err != nil {
		t.Fatalf("invoke after restart at cap boundary: %v", err)
	}
	if got := tr.ReplayedCalls(); got != 3 {
		t.Fatalf("ReplayedCalls = %d, want 3", got)
	}
	d.mu.Lock()
	calls := append([]uint64(nil), d.calls...)
	d.mu.Unlock()
	want := []uint64{1, 2, 3, 1, 2, 3, 4}
	// restartAt(0) reset lastSeq, so replayed seqs re-execute (the real
	// daemon's recovered state wants them); final call is seq 4.
	if len(calls) != len(want) {
		t.Fatalf("daemon executed %v, want %v", calls, want)
	}
}

// TestTCPTransportReplayOverflowSurfaced pins the cap's failure mode:
// one call past ReplayLimit drops the log and latches overflow, and a
// daemon that later recovers behind the dropped range is refused with
// an error wrapping both ErrReplayOverflow and ErrSiteDown — never
// silently rejoined with a truncated call tail.
func TestTCPTransportReplayOverflowSurfaced(t *testing.T) {
	d := startFakeDaemon(t)
	tr, err := NewTCPTransport([]string{d.srv.Addr()}, TCPConfig{
		Hellos:      [][]byte{[]byte("h")},
		Dial:        replayDialConfig(),
		ReplayLog:   true,
		ReplayLimit: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	for i := 0; i < 4; i++ { // one past the cap: log dropped, flag latched
		if _, err := tr.Invoke(0, "op", nil); err != nil {
			t.Fatal(err)
		}
	}
	d.restartAt(0)

	_, err = tr.Invoke(0, "op", nil)
	if !errors.Is(err, xerr.ErrReplayOverflow) {
		t.Fatalf("invoke after overflow: got %v, want ErrReplayOverflow", err)
	}
	if !errors.Is(err, xerr.ErrSiteDown) {
		t.Fatalf("overflow error must also be ErrSiteDown, got %v", err)
	}
	if got := tr.ReplayedCalls(); got != 0 {
		t.Fatalf("ReplayedCalls = %d, want 0 (log was dropped)", got)
	}
}

// TestTCPTransportMarkClearsOverflow pins that an acknowledged
// "chk.mark" clears the overflow latch: the daemon has durably covered
// the dropped range, so later restarts at the mark rejoin normally.
func TestTCPTransportMarkClearsOverflow(t *testing.T) {
	d := startFakeDaemon(t)
	tr, err := NewTCPTransport([]string{d.srv.Addr()}, TCPConfig{
		Hellos:      [][]byte{[]byte("h")},
		Dial:        replayDialConfig(),
		ReplayLog:   true,
		ReplayLimit: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	for i := 0; i < 4; i++ { // overflow
		if _, err := tr.Invoke(0, "op", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Invoke(0, "chk.mark", nil); err != nil { // seq 5, clears latch
		t.Fatal(err)
	}
	d.restartAt(5) // restarted from the checkpoint the mark cut

	if _, err := tr.Invoke(0, "op", nil); err != nil {
		t.Fatalf("invoke after mark-covered restart: %v", err)
	}
	if got := tr.ReplayedCalls(); got != 0 {
		t.Fatalf("ReplayedCalls = %d, want 0", got)
	}
}

// TestRewindClearsDroppedReplayEntries: Rewind cuts the replay log back
// to the watermark, and what it cuts must not stay reachable through the
// slack of the backing array — the re-driven round may log fewer calls
// than the abandoned one did, and those payloads would then live until
// the array is next overwritten that far.
func TestRewindClearsDroppedReplayEntries(t *testing.T) {
	d := startFakeDaemon(t)
	tr, err := NewTCPTransport([]string{d.srv.Addr()}, TCPConfig{
		Hellos:    [][]byte{[]byte("h")},
		Dial:      replayDialConfig(),
		ReplayLog: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < 5; i++ {
		if _, err := tr.Invoke(0, "op", []byte{byte(i), 0xAB}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Rewind([]uint64{2}); err != nil {
		t.Fatal(err)
	}
	sc := tr.sites[0]
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if len(sc.replay) != 2 || sc.replay[1].seq != 2 {
		t.Fatalf("replay log after Rewind(2) = %+v, want seqs 1-2", sc.replay)
	}
	for i, e := range sc.replay[len(sc.replay):cap(sc.replay)] {
		if e.data != nil || e.method != "" || e.seq != 0 {
			t.Fatalf("slack entry %d still holds a dropped call: %+v", i, e)
		}
	}
}
