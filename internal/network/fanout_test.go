package network

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// wireCount registers a handler on every site that does a little work and
// counts its invocations.
func wireCount(c *Cluster, calls *atomic.Int64) {
	for i := 0; i < c.NumSites(); i++ {
		RegisterFunc(c, SiteID(i), "work", func(req echoReq) (echoResp, error) {
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

// A parallel fan-out and a sequential fan-out of the same requests must
// meter exactly the same messages, bytes, per-pair bytes and received
// bytes. Run with -race this also proves the meters are data-race free
// under concurrency.
func TestFanoutStatsExactness(t *testing.T) {
	const rounds = 20
	runStats := func(workers int) Stats {
		c := NewCluster(8)
		var calls atomic.Int64
		wireCount(c, &calls)
		targets := targetsExcept(c, 0)
		for r := 0; r < rounds; r++ {
			_, err := Gather[echoReq, echoResp](c, 0, "work", targets, func(s SiteID) echoReq {
				return echoReq{Text: fmt.Sprintf("r%d", s), N: 3}
			}, FanoutOpts{MaxWorkers: workers})
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
	resps, err := Gather[echoReq, echoResp](c, 0, "echo", targets, func(s SiteID) echoReq {
		return echoReq{Text: fmt.Sprintf("s%d.", s), N: 2}
	}, FanoutOpts{})
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
		RegisterFunc(c, site, "maybe", func(req echoReq) (echoResp, error) {
			if int(site)%2 == 1 {
				return echoResp{}, fmt.Errorf("site %d down", site)
			}
			return echoResp{Text: req.Text}, nil
		})
	}
	targets := targetsExcept(c, 0)

	// First-error semantics: deterministic (lowest-index) error, nil replies.
	resps, err := Gather[echoReq, echoResp](c, 0, "maybe", targets, func(SiteID) echoReq {
		return echoReq{Text: "x", N: 1}
	}, FanoutOpts{})
	if err == nil || !strings.Contains(err.Error(), "site 1 down") {
		t.Errorf("first-error = %v, want site 1's failure", err)
	}
	if resps != nil {
		t.Errorf("got replies %v alongside a first-error failure", resps)
	}

	// Collect semantics: every failure is reported, healthy replies kept.
	resps, err = Gather[echoReq, echoResp](c, 0, "maybe", targets, func(SiteID) echoReq {
		return echoReq{Text: "x", N: 1}
	}, FanoutOpts{CollectErrors: true})
	if err == nil || !strings.Contains(err.Error(), "site 1 down") || !strings.Contains(err.Error(), "site 3 down") {
		t.Errorf("collected error = %v, want both failures", err)
	}
	if len(resps) != len(targets) {
		t.Fatalf("got %d replies, want %d", len(resps), len(targets))
	}
	if resps[1].Text != "x" || resps[3].Text != "x" { // sites 2 and 4
		t.Errorf("healthy replies lost: %v", resps)
	}

	// Broadcast shares the same semantics.
	if err := c.Broadcast(0, "maybe", echoReq{Text: "y", N: 1}, targets, FanoutOpts{}); err == nil {
		t.Error("Broadcast swallowed the failure")
	}
}

// Every call still runs after a failure: a sibling's error must not leave
// other sites mid-protocol.
func TestFanoutRunsAllAfterFailure(t *testing.T) {
	for _, workers := range []int{1, 4} {
		c := NewCluster(6)
		var calls atomic.Int64
		for i := 0; i < c.NumSites(); i++ {
			site := SiteID(i)
			RegisterFunc(c, site, "failfirst", func(echoReq) (echoResp, error) {
				calls.Add(1)
				if site == 1 {
					return echoResp{}, errors.New("boom")
				}
				return echoResp{}, nil
			})
		}
		targets := targetsExcept(c, 0)
		if err := c.Broadcast(0, "failfirst", echoReq{}, targets, FanoutOpts{MaxWorkers: workers}); err == nil {
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
		resps, err := Gather[echoReq, echoResp](c, 0, "echo", targets, func(s SiteID) echoReq {
			return echoReq{Text: fmt.Sprintf("p%d", s), N: 2}
		}, FanoutOpts{})
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
	c := NewCluster(4)
	c.SetMaxFanout(1)
	if got := c.MaxFanout(); got != 1 {
		t.Errorf("MaxFanout = %d after SetMaxFanout(1)", got)
	}
	c.SetMaxFanout(0)
	if got := c.MaxFanout(); got < 1 {
		t.Errorf("default MaxFanout = %d", got)
	}

	// Concurrency never exceeds the cap.
	var cur, peak atomic.Int64
	err := c.Fanout(32, FanoutOpts{MaxWorkers: 3}, func(int) error {
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
		t.Errorf("observed %d concurrent calls with MaxWorkers=3", peak.Load())
	}
}
