package session

import (
	"context"
	"errors"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/sitehost"
	"repro/internal/workload"
	"repro/internal/xerr"
)

// metersEqual compares the deterministic meter fields (BusyNanos is
// wall-clock handler time and legitimately differs between runs).
func metersEqual(a, b network.Stats) bool {
	return a.Messages == b.Messages &&
		a.Bytes == b.Bytes &&
		a.Eqids == b.Eqids &&
		reflect.DeepEqual(a.PerPair, b.PerPair) &&
		reflect.DeepEqual(a.RecvBytes, b.RecvBytes)
}

// serveHosts starts n in-process site daemons on loopback sockets and
// returns their addresses alongside the servers (for restart tests).
func serveHosts(t *testing.T, n int) ([]string, []*sitehost.Server) {
	t.Helper()
	addrs := make([]string, n)
	srvs := make([]*sitehost.Server, n)
	for i := 0; i < n; i++ {
		srv, err := sitehost.Serve(sitehost.NewHost(), "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		// The host too: under WithCheckpointDir its compactor may still
		// be writing into a directory the test is about to remove.
		t.Cleanup(func() { srv.Close(); srv.Host().Close() })
		addrs[i] = srv.Addr()
		srvs[i] = srv
	}
	return addrs, srvs
}

// totalSiteCalls sums a TCP session's per-site call counts.
func totalSiteCalls(s *Session) uint64 {
	var n uint64
	for _, c := range s.SiteCalls() {
		n += c
	}
	return n
}

// TestTCPSessionMatchesLoopback drives identical workloads through an
// in-process loopback session and a TCP-sites session (real sockets,
// in-process daemons) and asserts that the maintained violation set AND
// the communication meters stay bit-identical — the framing layer may
// only add physical bytes, metered separately.
func TestTCPSessionMatchesLoopback(t *testing.T) {
	for _, kind := range []string{"horizontal", "vertical"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			gen := workload.NewSized(workload.TPCH, 42, 600)
			pool := gen.Rules(5)
			rel := gen.Relation(200)
			const sites = 3

			opt := func() Option {
				if kind == "horizontal" {
					return WithHorizontal(partition.HashHorizontal("c_name", sites))
				}
				return WithVertical(partition.RoundRobinVertical(rel.Schema, sites))
			}

			loop, err := Open(rel, pool[:3], opt())
			if err != nil {
				t.Fatal(err)
			}
			defer loop.Close()

			addrs, _ := serveHosts(t, sites)
			tcp, err := Open(rel, pool[:3], opt(), WithTCPSites(addrs...))
			if err != nil {
				t.Fatal(err)
			}
			defer tcp.Close()

			mirror := rel.Clone()
			active := append(pool[:0:0], pool[:3]...)
			check := func(step string) {
				t.Helper()
				oracle := centralized.Detect(mirror, active)
				if !tcp.Violations().Equal(oracle) {
					t.Fatalf("%s: TCP session V diverged from centralized oracle", step)
				}
				if !tcp.Violations().Equal(loop.Violations()) {
					t.Fatalf("%s: TCP session V diverged from loopback", step)
				}
				ls, ts := loop.Stats(), tcp.Stats()
				if !metersEqual(ls, ts) {
					t.Fatalf("%s: meters diverged:\nloopback: %+v\ntcp:      %+v", step, ls, ts)
				}
			}

			check("seed")
			for step := 0; step < 4; step++ {
				updates := gen.Updates(mirror, 20, 0.6)
				if _, err := loop.ApplyBatch(context.Background(), updates); err != nil {
					t.Fatalf("loopback ApplyBatch: %v", err)
				}
				if _, err := tcp.ApplyBatch(context.Background(), updates); err != nil {
					t.Fatalf("tcp ApplyBatch: %v", err)
				}
				if err := updates.Normalize().Apply(mirror); err != nil {
					t.Fatal(err)
				}
				check("batch")
			}

			if _, err := loop.AddRules(pool[3]); err != nil {
				t.Fatalf("loopback AddRules: %v", err)
			}
			if _, err := tcp.AddRules(pool[3]); err != nil {
				t.Fatalf("tcp AddRules: %v", err)
			}
			active = append(active, pool[3])
			check("add rule")

			if _, err := loop.RemoveRules(pool[0].ID); err != nil {
				t.Fatalf("loopback RemoveRules: %v", err)
			}
			frameBefore, callsBefore := tcp.Cluster().FrameBytes(), totalSiteCalls(tcp)
			if _, err := tcp.RemoveRules(pool[0].ID); err != nil {
				t.Fatalf("tcp RemoveRules: %v", err)
			}
			// Per-message framing overhead. The round is one "h.dropRules" /
			// "v.dropRules" call per site whose request payload is the rule
			// id plus two length bytes and whose reply payload is empty, so
			// everything else the socket carried is frame headers and
			// envelopes: at most 16 B for each of the call's two messages,
			// plus the method name. Type descriptors in every frame (the
			// gob envelope paid ~100 B per message) cannot meet this.
			calls := int64(totalSiteCalls(tcp) - callsBefore)
			if calls != sites {
				t.Fatalf("RemoveRules round made %d calls, want one per site (%d)", calls, sites)
			}
			perCall := (tcp.Cluster().FrameBytes() - frameBefore) / calls
			if over := perCall - int64(len(pool[0].ID)+2) - int64(len("h.dropRules")); over > 2*16 {
				t.Fatalf("framing overhead %d B per call beyond method and payload, want <= 32 (%d B per call in all)", over, perCall)
			}
			active = append(active[:0:0], active[1:]...)
			check("remove rule")

			updates := gen.Updates(mirror, 25, 0.5)
			if _, err := loop.ApplyBatch(context.Background(), updates); err != nil {
				t.Fatal(err)
			}
			if _, err := tcp.ApplyBatch(context.Background(), updates); err != nil {
				t.Fatal(err)
			}
			if err := updates.Normalize().Apply(mirror); err != nil {
				t.Fatal(err)
			}
			check("final batch")

			// A rule added live whose pattern constant sits on a site that
			// checked nothing before (every pool rule is all-wildcard). The
			// driver must start consulting that site — and must learn it
			// from the rule set: over TCP its local site replicas never see
			// AddRules. The seed wave and a later violating insert both
			// depend on it.
			sample := mirror.Tuples()[0]
			col, _ := rel.Schema.Index("c_nation")
			live := cfd.CFD{
				ID:  "live-const",
				LHS: []string{"c_nation"}, LHSPattern: []string{sample.Values[col]},
				RHS: "c_region", RHSPattern: "nowhere",
			}
			if _, err := loop.AddRules(live); err != nil {
				t.Fatalf("loopback AddRules: %v", err)
			}
			if _, err := tcp.AddRules(live); err != nil {
				t.Fatalf("tcp AddRules: %v", err)
			}
			active = append(active, live)
			check("add constant-pattern rule")

			sample.ID = mirror.MaxID() + 1
			violating := relation.UpdateList{{Kind: relation.Insert, Tuple: sample}}
			if _, err := loop.ApplyBatch(context.Background(), violating); err != nil {
				t.Fatal(err)
			}
			if _, err := tcp.ApplyBatch(context.Background(), violating); err != nil {
				t.Fatal(err)
			}
			if err := violating.Apply(mirror); err != nil {
				t.Fatal(err)
			}
			if !tcp.Violations().HasRule(sample.ID, live.ID) {
				t.Fatal("violating insert not flagged")
			}
			check("violating insert")

			if loop.Cluster().FrameBytes() != 0 {
				t.Fatalf("loopback FrameBytes = %d, want 0", loop.Cluster().FrameBytes())
			}
		})
	}
}

// TestTCPReconnectAfterRestart restarts a site's listener mid-stream
// (the daemon keeping its state, as a blip or rebind would) and asserts
// the driver redials inside its retry budget and the stream resumes
// correctly.
func TestTCPReconnectAfterRestart(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 7, 500)
	rules := gen.Rules(3)
	rel := gen.Relation(150)
	const sites = 3

	addrs, srvs := serveHosts(t, sites)
	sess, err := Open(rel, rules,
		WithHorizontal(partition.HashHorizontal("c_name", sites)),
		WithTCPSites(addrs...),
		WithTCPRetryBudget(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	mirror := rel.Clone()
	apply := func(step string) {
		t.Helper()
		updates := gen.Updates(mirror, 15, 0.6)
		if _, err := sess.ApplyBatch(context.Background(), updates); err != nil {
			t.Fatalf("%s: ApplyBatch: %v", step, err)
		}
		if err := updates.Normalize().Apply(mirror); err != nil {
			t.Fatal(err)
		}
		if oracle := centralized.Detect(mirror, rules); !sess.Violations().Equal(oracle) {
			t.Fatalf("%s: V diverged after reconnect", step)
		}
	}
	apply("before restart")

	// Take site 1 down; bring it back on the same port with the same
	// host state while the driver is already mid-backoff.
	if err := srvs[1].Close(); err != nil {
		t.Fatal(err)
	}
	restarted := make(chan error, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		srv, err := sitehost.Serve(srvs[1].Host(), addrs[1], nil)
		if err == nil {
			t.Cleanup(func() { srv.Close() })
		}
		restarted <- err
	}()
	apply("across restart")
	if err := <-restarted; err != nil {
		t.Fatalf("restarting site 1: %v", err)
	}
	apply("after restart")
}

// TestTCPReconnectStateLost pins the unrecoverable restart: the site
// comes back on the same port but EMPTY (a fresh daemon that lost the
// seeded state). The driver's reconnect handshake must be rejected and
// surface ErrSiteDown rather than silently re-bootstrapping a site that
// no longer holds the data.
func TestTCPReconnectStateLost(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 8, 400)
	rules := gen.Rules(3)
	rel := gen.Relation(100)
	const sites = 3

	addrs, srvs := serveHosts(t, sites)
	sess, err := Open(rel, rules,
		WithHorizontal(partition.HashHorizontal("c_name", sites)),
		WithTCPSites(addrs...),
		WithTCPRetryBudget(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	mirror := rel.Clone()
	updates := gen.Updates(mirror, 10, 0.6)
	if _, err := sess.ApplyBatch(context.Background(), updates); err != nil {
		t.Fatal(err)
	}
	if err := updates.Normalize().Apply(mirror); err != nil {
		t.Fatal(err)
	}

	// Replace site 1 with a fresh, empty host on the same port.
	if err := srvs[1].Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := sitehost.Serve(sitehost.NewHost(), addrs[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	_, err = sess.ApplyBatch(context.Background(), gen.Updates(mirror, 10, 0.6))
	if !errors.Is(err, xerr.ErrSiteDown) {
		t.Fatalf("ApplyBatch against state-lost site: got %v, want ErrSiteDown", err)
	}
}

// TestTCPCloseLeaksNoGoroutines is the real-socket twin of
// TestCloseLeaksNoGoroutines: a TCP-sites session spawns per-site server goroutines and
// per-connection readers, and closing the session plus the servers must
// reap every one of them.
func TestTCPCloseLeaksNoGoroutines(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 13, 300)
	rules := gen.Rules(3)
	rel := gen.Relation(100)

	run := func(kind string) {
		var srvs []*sitehost.Server
		addrs := make([]string, 3)
		for i := range addrs {
			srv, err := sitehost.Serve(sitehost.NewHost(), "127.0.0.1:0", nil)
			if err != nil {
				t.Fatal(err)
			}
			srvs = append(srvs, srv)
			addrs[i] = srv.Addr()
		}
		opt := WithHorizontal(partition.HashHorizontal("c_name", 3))
		if kind == "vertical" {
			opt = WithVertical(partition.RoundRobinVertical(rel.Schema, 3))
		}
		s, err := Open(rel, rules, opt, WithTCPSites(addrs...))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyBatch(context.Background(), gen.Updates(rel, 5, 1)); err != nil {
			t.Fatalf("%s: ApplyBatch over TCP: %v", kind, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s: Close: %v", kind, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s: second Close: %v", kind, err)
		}
		for _, srv := range srvs {
			if err := srv.Close(); err != nil {
				t.Fatalf("%s: server Close: %v", kind, err)
			}
		}
	}

	// Warm up runtime pools before baselining.
	run("horizontal")
	base := runtime.NumGoroutine()
	run("horizontal")
	run("vertical")

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after TCP Close: %d > baseline %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPSitesRefuseSharedDaemon: two sites of one session must never
// share a daemon, whose state would silently merge theirs. A repeated
// address fails Open with ErrSiteDown naming the second site; two
// addresses that reach one daemon (here through a dialer that aliases
// them) fail it the same way, because the daemon refuses the second
// site's hello.
func TestTCPSitesRefuseSharedDaemon(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 42, 600)
	rules := gen.Rules(20)
	rel := gen.Relation(600)
	for _, kind := range []string{"horizontal", "vertical"} {
		// A fresh daemon per kind: a failed Open leaves the first site
		// it bootstrapped behind.
		addrs, _ := serveHosts(t, 1)
		alias := func(_ string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addrs[0], timeout)
		}
		for _, c := range []struct {
			name string
			opts []Option
			want string
		}{
			{"repeated address", []Option{WithTCPSites(addrs[0], addrs[0])}, "site 1"},
			{"aliased daemon", []Option{WithTCPSites("site-a", "site-b"), WithTCPDialer(alias)}, "refusing its " + kind + " site"},
		} {
			opts := append([]Option{styleOption(kind, rel.Schema, 2)}, c.opts...)
			s, err := Open(rel, rules, opts...)
			if err == nil {
				s.Close()
				t.Fatalf("%s, %s: Open succeeded with two sites on one daemon", kind, c.name)
			}
			if !errors.Is(err, xerr.ErrSiteDown) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s, %s: Open = %v, want ErrSiteDown naming %q", kind, c.name, err, c.want)
			}
		}
	}
}
