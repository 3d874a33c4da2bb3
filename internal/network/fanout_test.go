package network

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// wireCount registers a handler on every site that does a little work and
// counts its invocations.
func wireCount(c *Cluster, calls *atomic.Int64) {
	for i := 0; i < c.NumSites(); i++ {
		RegisterFunc(c, SiteID(i), mWork, func(req echoReq) (echoResp, error) {
			calls.Add(1)
			return echoResp{Text: strings.Repeat(req.Text, req.N)}, nil
		})
	}
}

func targetsExcept(c *Cluster, skip SiteID) []SiteID {
	var out []SiteID
	for i := 0; i < c.NumSites(); i++ {
		if SiteID(i) != skip {
			out = append(out, SiteID(i))
		}
	}
	return out
}

// waitingCluster is a cluster of n in-process sites whose calls can wait:
// the smallest nonzero link RTT, so its fan-outs run on helpers.
func waitingCluster(n int) *Cluster {
	c := NewCluster(n)
	c.SetLinkRTT(time.Nanosecond)
	return c
}

// A parallel fan-out and a sequential fan-out of the same requests must
// meter exactly the same messages, bytes, per-pair bytes and received
// bytes. Run with -race this also proves the meters are data-race free
// under concurrency.
func TestFanoutStatsExactness(t *testing.T) {
	const rounds = 20
	runStats := func(workers int) Stats {
		c := waitingCluster(8)
		c.SetMaxFanout(workers)
		var calls atomic.Int64
		wireCount(c, &calls)
		targets := targetsExcept(c, 0)
		for r := 0; r < rounds; r++ {
			_, err := GatherVia(c, Call[echoReq, echoResp], 0, mWork, targets, func(s SiteID) echoReq {
				return echoReq{Text: fmt.Sprintf("r%d", s), N: 3}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := calls.Load(); got != rounds*int64(len(targets)) {
			t.Fatalf("handler ran %d times, want %d", got, rounds*len(targets))
		}
		return c.Stats()
	}

	seq := runStats(1)
	par := runStats(8)
	if seq.Messages != par.Messages || seq.Bytes != par.Bytes {
		t.Errorf("sequential metered %d msgs / %d bytes, parallel %d / %d",
			seq.Messages, seq.Bytes, par.Messages, par.Bytes)
	}
	for _, k := range seq.Pairs() {
		if seq.PerPair[k] != par.PerPair[k] {
			t.Errorf("pair %s: sequential %d bytes, parallel %d", k, seq.PerPair[k], par.PerPair[k])
		}
	}
	for i := range seq.RecvBytes {
		if seq.RecvBytes[i] != par.RecvBytes[i] {
			t.Errorf("site %d: sequential received %d bytes, parallel %d", i, seq.RecvBytes[i], par.RecvBytes[i])
		}
	}
}

// Gather replies land in target order regardless of completion order.
func TestGatherPreservesTargetOrder(t *testing.T) {
	c := NewCluster(6)
	wireEcho(c)
	targets := targetsExcept(c, 0)
	resps, err := GatherVia(c, Call[echoReq, echoResp], 0, mEcho, targets, func(s SiteID) echoReq {
		return echoReq{Text: fmt.Sprintf("s%d.", s), N: 2}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range targets {
		want := fmt.Sprintf("s%d.s%d.", s, s)
		if resps[i].Text != want {
			t.Errorf("reply %d = %q, want %q", i, resps[i].Text, want)
		}
	}
}

func TestFanoutErrorPropagation(t *testing.T) {
	c := NewCluster(5)
	for i := 0; i < c.NumSites(); i++ {
		site := SiteID(i)
		RegisterFunc(c, site, mMaybe, func(req echoReq) (echoResp, error) {
			if int(site)%2 == 1 {
				return echoResp{}, fmt.Errorf("site %d down", site)
			}
			return echoResp{Text: req.Text}, nil
		})
	}
	targets := targetsExcept(c, 0)

	// First-error semantics: deterministic (lowest-index) error, nil replies.
	resps, err := GatherVia(c, Call[echoReq, echoResp], 0, mMaybe, targets, func(SiteID) echoReq {
		return echoReq{Text: "x", N: 1}
	})
	if err == nil || !strings.Contains(err.Error(), "site 1 down") {
		t.Errorf("first-error = %v, want site 1's failure", err)
	}
	if resps != nil {
		t.Errorf("got replies %v alongside a first-error failure", resps)
	}
}

// Every call still runs after a failure: a sibling's error must not leave
// other sites mid-protocol.
func TestFanoutRunsAllAfterFailure(t *testing.T) {
	for _, workers := range []int{1, 4} {
		c := waitingCluster(6)
		var calls atomic.Int64
		for i := 0; i < c.NumSites(); i++ {
			site := SiteID(i)
			RegisterFunc(c, site, mFailFirst, func(echoReq) (echoResp, error) {
				calls.Add(1)
				if site == 1 {
					return echoResp{}, errors.New("boom")
				}
				return echoResp{}, nil
			})
		}
		c.SetMaxFanout(workers)
		targets := targetsExcept(c, 0)
		err := Fanout(c, len(targets), nil, func(_ *struct{}, l *Lane, i int) error {
			_, err := Call(l, 0, targets[i], mFailFirst, echoReq{})
			return err
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if got := calls.Load(); got != int64(len(targets)) {
			t.Errorf("workers=%d: %d of %d calls ran after a failure", workers, got, len(targets))
		}
		calls.Store(0)
	}
}

// In-process and real-socket clusters agree on fan-out results and on
// every meter.
func TestFanoutLoopbackTCPParity(t *testing.T) {
	build := func() *Cluster {
		c := NewCluster(4)
		wireEcho(c)
		return c
	}
	collect := func(c *Cluster) ([]echoResp, Stats) {
		targets := targetsExcept(c, 0)
		resps, err := GatherVia(c, Call[echoReq, echoResp], 0, mEcho, targets, func(s SiteID) echoReq {
			return echoReq{Text: fmt.Sprintf("p%d", s), N: 2}
		})
		if err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		st.BusyNanos = nil // handler time, not traffic
		return resps, st
	}

	loopResps, loopStats := collect(build())
	tcpResps, tcpStats := collect(remoteTwin(t, build()))

	if !reflect.DeepEqual(loopResps, tcpResps) {
		t.Errorf("replies: loopback %v, tcp %v", loopResps, tcpResps)
	}
	if loopStats.Messages != 3 || loopStats.Bytes <= 0 {
		t.Errorf("unmetered fan-out: %+v", loopStats)
	}
	if !reflect.DeepEqual(loopStats, tcpStats) {
		t.Errorf("meters diverge:\nloopback %+v\ntcp      %+v", loopStats, tcpStats)
	}
}

func TestFanoutWorkerCaps(t *testing.T) {
	c := waitingCluster(4)
	c.SetMaxFanout(1)
	if got := c.MaxFanout(); got != 1 {
		t.Errorf("MaxFanout = %d after SetMaxFanout(1)", got)
	}
	c.SetMaxFanout(0)
	if got := c.MaxFanout(); got < 1 {
		t.Errorf("default MaxFanout = %d", got)
	}

	// Concurrency never exceeds the cap.
	c.SetMaxFanout(3)
	var cur, peak atomic.Int64
	err := Fanout(c, 32, nil, func(*struct{}, *Lane, int) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 3 {
		t.Errorf("observed %d concurrent calls with SetMaxFanout(3)", peak.Load())
	}
}

// goroutineID is the running goroutine's id, read off its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// stubTransport is a remote transport nothing is sent through.
type stubTransport struct{}

func (stubTransport) Invoke(SiteID, string, []byte) ([]byte, error) {
	return nil, errors.New("stub transport")
}
func (stubTransport) Close() error { return nil }

// A fan-out overlaps its calls only where a call can wait. In process at
// zero RTT it runs inline on the caller, in index order, whatever the
// cap; a nonzero link RTT or a remote transport makes it concurrent.
func TestFanoutInlineWithoutWaits(t *testing.T) {
	base := runtime.NumGoroutine()
	c := NewCluster(4)
	defer c.Close()
	c.SetMaxFanout(4)
	caller := goroutineID()
	var order []int
	var cur atomic.Int64
	err := Fanout(c, 16, nil, func(_ *struct{}, _ *Lane, i int) error {
		if n := cur.Add(1); n != 1 {
			return fmt.Errorf("index %d ran beside %d others", i, n-1)
		}
		defer cur.Add(-1)
		if id := goroutineID(); id != caller {
			return fmt.Errorf("index %d ran on goroutine %s, caller is %s", i, id, caller)
		}
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("indices ran in order %v", order)
		}
	}
	if len(order) != 16 {
		t.Errorf("%d indices ran, want 16", len(order))
	}
	if n := runtime.NumGoroutine(); n > base || c.fan.idle.Load() != 0 {
		t.Errorf("%d goroutines (baseline %d), %d parked helpers after an inline fan-out", n, base, c.fan.idle.Load())
	}

	// Each index waits for the other to arrive: only a round on two
	// workers completes.
	barrier := func(c *Cluster) error {
		var arrived atomic.Int64
		all := make(chan struct{})
		return Fanout(c, 2, nil, func(_ *struct{}, _ *Lane, i int) error {
			if arrived.Add(1) == 2 {
				close(all)
			}
			select {
			case <-all:
				return nil
			case <-time.After(5 * time.Second):
				return fmt.Errorf("index %d waited alone: the round ran on one worker", i)
			}
		})
	}
	c.SetLinkRTT(time.Nanosecond)
	if err := barrier(c); err != nil {
		t.Errorf("with a link RTT: %v", err)
	}
	remote := NewCluster(4)
	remote.UseRemoteTransport(stubTransport{})
	defer remote.Close()
	if err := barrier(remote); err != nil {
		t.Errorf("with a remote transport: %v", err)
	}
}

// awaitGoroutines waits for the goroutine count to fall to at most want,
// reporting the last count seen.
func awaitGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Parked helpers are reused: a long series of fan-outs wider than the cap
// leaves at most MaxFanout()−1 helpers behind, and Close stops them all.
func TestFanoutHelpersBounded(t *testing.T) {
	base := runtime.NumGoroutine()
	c := waitingCluster(4)
	w := c.MaxFanout()
	var sum atomic.Int64
	for round := 0; round < 10000; round++ {
		if err := Fanout(c, w+3, nil, func(_ *struct{}, _ *Lane, i int) error {
			sum.Add(int64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if want := int64(10000 * (w + 3) * (w + 2) / 2); sum.Load() != want {
		t.Fatalf("index sum %d, want %d", sum.Load(), want)
	}
	if helpers := runtime.NumGoroutine() - base; helpers > w-1 {
		t.Errorf("%d goroutines left after 10000 fan-outs, want at most %d helpers", helpers, w-1)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := awaitGoroutines(base); n > base {
		t.Errorf("%d goroutines after Close, baseline %d", n, base)
	}
	// A closed cluster still fans out, on helpers that do not stay.
	if err := Fanout(c, w, nil, func(*struct{}, *Lane, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if n := awaitGoroutines(base); n > base {
		t.Errorf("%d goroutines after a fan-out on a closed cluster, baseline %d", n, base)
	}
}

// A cluster dropped without Close still lets its helpers go.
func TestFanoutDroppedClusterStopsHelpers(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		c := waitingCluster(4)
		if err := Fanout(c, c.MaxFanout(), nil, func(*struct{}, *Lane, int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after dropping an unclosed cluster, baseline %d", n, base)
	}
}

// A Fanout called from inside another's fn completes, even when every
// helper is busy in the outer round.
func TestFanoutNested(t *testing.T) {
	c := waitingCluster(4)
	defer c.Close()
	c.SetMaxFanout(4)
	var calls atomic.Int64
	err := Fanout(c, 8, nil, func(*struct{}, *Lane, int) error {
		return Fanout(c, 8, nil, func(*struct{}, *Lane, int) error {
			calls.Add(1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 64 {
		t.Errorf("%d inner calls ran, want 64", calls.Load())
	}
}

// Fan-outs from several goroutines at once each run every index of
// their own round, whether they share the cluster's helpers or, with
// nothing to wait on, run inline on lanes of their own, and the meters
// count every call they make.
func TestFanoutConcurrentCallers(t *testing.T) {
	const callers, rounds, width = 4, 200, 9
	for _, c := range []*Cluster{waitingCluster(4), NewCluster(4)} {
		var calls atomic.Int64
		wireCount(c, &calls)
		c.SetMaxFanout(4)
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < rounds; round++ {
					var sum atomic.Int64
					if err := Fanout(c, width, nil, func(_ *struct{}, l *Lane, i int) error {
						sum.Add(int64(i))
						_, err := Call(l, 0, SiteID(i%4), mWork, echoReq{Text: "x", N: 1})
						return err
					}); err != nil {
						t.Error(err)
						return
					}
					if sum.Load() != 36 {
						t.Errorf("round ran indices summing to %d, want 36", sum.Load())
						return
					}
				}
			}()
		}
		wg.Wait()
		// Indices 0, 4 and 8 are site 0 calling itself: unmetered.
		if got, msgs := calls.Load(), c.Stats().Messages; got != callers*rounds*width || msgs != callers*rounds*(width-3) {
			t.Errorf("canWait %v: %d calls, %d messages; want %d and %d", c.canWait(), got, msgs, callers*rounds*width, callers*rounds*(width-3))
		}
		c.Close()
	}
}

// A failed round leaves nothing behind for the next one to report.
func TestFanoutNoStaleError(t *testing.T) {
	c := waitingCluster(4)
	defer c.Close()
	c.SetMaxFanout(4)
	err := Fanout(c, 10, nil, func(_ *struct{}, _ *Lane, i int) error {
		if i == 3 {
			return errors.New("index 3")
		}
		return nil
	})
	if err == nil || err.Error() != "index 3" {
		t.Fatalf("failing round returned %v", err)
	}
	if err := Fanout(c, 10, nil, func(*struct{}, *Lane, int) error { return nil }); err != nil {
		t.Errorf("clean round after a failure returned %v", err)
	}
}

// The lowest-index error wins whatever the worker count and whichever
// failure lands first.
func TestFanoutLowestIndexErrorWins(t *testing.T) {
	for _, w := range []int{2, 8} {
		c := waitingCluster(4)
		c.SetMaxFanout(w)
		for round := 0; round < 50; round++ {
			err := Fanout(c, 16, nil, func(_ *struct{}, _ *Lane, i int) error {
				if i%3 == 2 {
					switch i {
					case 2:
						time.Sleep(time.Millisecond) // later failures land first
					case 14:
						time.Sleep(2 * time.Millisecond) // and one lands after it
					}
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "index 2" {
				t.Fatalf("w=%d: error %v, want index 2", w, err)
			}
		}
		c.Close()
	}
}

// The busy meter charges a call's time to the site that took it: in a
// round where one site's handler alone takes 20 ms, that site's
// BusyNanos grows by at least as much per round and no other site's by
// anything near it. At zero RTT the round runs inline, and a call's
// window starts where the previous call's ended; at 1 ns it runs
// concurrently, and each handler is timed alone.
func TestBusyMeterChargesTheWorkingSite(t *testing.T) {
	const (
		slow   = SiteID(2)
		work   = 20 * time.Millisecond
		rounds = 3
	)
	for _, rtt := range []time.Duration{0, time.Nanosecond} {
		c := NewCluster(4)
		c.SetLinkRTT(rtt)
		for i := 0; i < c.NumSites(); i++ {
			site := SiteID(i)
			RegisterFunc(c, site, mWork, func(echoReq) (echoResp, error) {
				if site == slow {
					time.Sleep(work)
				}
				return echoResp{}, nil
			})
		}
		targets := []SiteID{0, 1, 2, 3} // site 0's own call is same-site
		for r := 0; r < rounds; r++ {
			if _, err := GatherVia(c, Call[echoReq, echoResp], 0, mWork, targets, func(SiteID) echoReq { return echoReq{} }); err != nil {
				t.Fatal(err)
			}
		}
		busy := c.Stats().BusyNanos
		if got := time.Duration(busy[slow]); got < rounds*work {
			t.Errorf("rtt %v: the working site was charged %v, want at least %v", rtt, got, rounds*work)
		}
		for i, ns := range busy {
			if got := time.Duration(ns); SiteID(i) != slow && got >= work/2 {
				t.Errorf("rtt %v: idle site %d was charged %v of the working site's %v", rtt, i, got, time.Duration(busy[slow]))
			}
		}
		c.Close()
	}
}
