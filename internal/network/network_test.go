package network

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/netwire"
	"repro/internal/wire"
)

type echoReq struct {
	Text string
	N    int
}

type echoResp struct {
	Text string
}

type dropResp struct{}

// The handles of the methods the tests register.
var (
	mEcho      = NewMethod[echoReq, echoResp]("echo")
	mDrop      = NewMethod[echoReq, dropResp]("drop")
	mWork      = NewMethod[echoReq, echoResp]("work")
	mMaybe     = NewMethod[echoReq, echoResp]("maybe")
	mFailFirst = NewMethod[echoReq, echoResp]("failfirst")
)

func wireEcho(c *Cluster) {
	for i := 0; i < c.NumSites(); i++ {
		RegisterFunc(c, SiteID(i), mEcho, func(req echoReq) (echoResp, error) {
			return echoResp{Text: strings.Repeat(req.Text, req.N)}, nil
		})
	}
}

func TestLocalCallsAreUnmetered(t *testing.T) {
	c := NewCluster(3)
	wireEcho(c)
	resp, err := Call(c.Lane(), 1, 1, mEcho, echoReq{Text: "ab", N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != "abab" {
		t.Errorf("echo = %q", resp.Text)
	}
	if st := c.Stats(); st.Messages != 0 || st.Bytes != 0 {
		t.Errorf("same-site call was metered: %+v", st)
	}
}

func TestCrossSiteCallsAreMetered(t *testing.T) {
	c := NewCluster(3)
	wireEcho(c)
	for i := 0; i < 5; i++ {
		if _, err := Call(c.Lane(), 0, 2, mEcho, echoReq{Text: "hello", N: 3}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Messages != 5 {
		t.Errorf("Messages = %d, want 5", st.Messages)
	}
	if st.Bytes <= 0 {
		t.Error("no bytes metered")
	}
	if st.PerPair["0→2"] <= 0 || st.PerPair["2→0"] <= 0 {
		t.Errorf("per-pair accounting missing: %v", st.PerPair)
	}
	if st.RecvBytes[2] <= 0 || st.RecvBytes[0] <= 0 {
		t.Errorf("recv accounting missing: %v", st.RecvBytes)
	}
	c.AddEqids(7)
	if got := c.Stats().Eqids; got != 7 {
		t.Errorf("Eqids = %d", got)
	}
	c.ResetStats()
	if st := c.Stats(); st.Messages != 0 || st.Bytes != 0 || len(st.BusyNanos) != 3 {
		t.Errorf("ResetStats left %+v", st)
	}
}

// remoteTwin starts one framed-TCP listener per site of srv, each serving
// its site's handlers through Dispatch — a minimal sited — and returns a
// driver-side cluster whose every call ships to them over real sockets.
func remoteTwin(t *testing.T, srv *Cluster) *Cluster {
	t.Helper()
	addrs := make([]string, srv.NumSites())
	hellos := make([][]byte, srv.NumSites())
	for i := range addrs {
		site := SiteID(i)
		ln, err := netwire.Listen("127.0.0.1:0", nil, netwire.ConnOptions{}, func(c *netwire.Conn) {
			for {
				msg, err := c.Recv(0)
				if err != nil {
					return
				}
				reply := &netwire.Msg{Kind: netwire.KindHelloAck}
				if msg.Kind == netwire.KindCall {
					reply = &netwire.Msg{Kind: netwire.KindReply, Seq: msg.Seq}
					if reply.Data, err = srv.Dispatch(site, msg.Method, msg.Data); err != nil {
						reply.Err = err.Error()
					}
				}
				if c.Send(reply, time.Second) != nil {
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		addrs[i], hellos[i] = ln.Addr(), []byte("hello")
	}
	tr, err := NewTCPTransport(addrs, TCPConfig{Hellos: hellos})
	if err != nil {
		t.Fatal(err)
	}
	drv := NewCluster(srv.NumSites())
	drv.UseRemoteTransport(tr)
	t.Cleanup(func() { drv.Close() })
	return drv
}

// TestMeterIsPayloadLength pins the one definition of a shipped byte on
// both ways to reach a site: a cross-site call is one message costing
// len(wire.Marshal(request)) + len(wire.Marshal(reply)) — the reply counted even
// when the caller discards it — and a same-site call costs nothing.
func TestMeterIsPayloadLength(t *testing.T) {
	build := func() *Cluster {
		c := NewCluster(3)
		wireEcho(c)
		for i := 0; i < c.NumSites(); i++ {
			RegisterFunc(c, SiteID(i), mDrop, func(echoReq) (dropResp, error) { return dropResp{}, nil })
		}
		return c
	}
	size := func(v any) int64 {
		b, err := wire.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(b))
	}
	req := echoReq{Text: "héllo", N: 300}
	echoed := echoResp{Text: strings.Repeat(req.Text, req.N)}
	echo := func(l *Lane, from, to SiteID) (any, error) { return Call(l, from, to, mEcho, req) }
	drop := func(l *Lane, from, to SiteID) (any, error) { return Call(l, from, to, mDrop, req) }
	cases := []struct {
		name      string
		from, to  SiteID
		call      func(l *Lane, from, to SiteID) (any, error)
		reply     any // the reply the caller reads, or nil when it drops it
		msgs      int64
		req, resp int64
	}{
		{"cross-site with reply", 0, 2, echo, echoed, 1, size(req), size(echoed)},
		{"fire-and-forget", 1, 0, drop, nil, 1, size(req), size(dropResp{})},
		{"discarded reply", 2, 1, echo, nil, 1, size(req), size(echoed)},
		{"same-site", 1, 1, echo, echoed, 0, 0, 0},
	}
	for _, tr := range []struct {
		name    string
		cluster *Cluster
	}{{"loopback", build()}, {"tcp", remoteTwin(t, build())}} {
		c := tr.cluster
		for _, tc := range cases {
			before := c.Stats()
			got, err := tc.call(c.Lane(), tc.from, tc.to)
			if err != nil {
				t.Fatalf("%s/%s: %v", tr.name, tc.name, err)
			}
			if tc.reply != nil && got != tc.reply {
				t.Errorf("%s/%s: reply %v", tr.name, tc.name, got)
			}
			d := c.Stats().Sub(before)
			want := Stats{Messages: tc.msgs, Bytes: tc.req + tc.resp, PerPair: map[string]int64{}, RecvBytes: make([]int64, 3)}
			if tc.req > 0 {
				want.PerPair[fmt.Sprintf("%d→%d", tc.from, tc.to)] = tc.req
				want.RecvBytes[tc.to] = tc.req
			}
			if tc.resp > 0 {
				want.PerPair[fmt.Sprintf("%d→%d", tc.to, tc.from)] = tc.resp
				want.RecvBytes[tc.from] = tc.resp
			}
			d.BusyNanos = nil
			if !reflect.DeepEqual(d, want) {
				t.Errorf("%s/%s: metered %+v, want %+v", tr.name, tc.name, d, want)
			}
		}
	}
}

// TestZeroByteEdgesKeepTheirKey: an edge a metered call crossed is in
// PerPair even when its payloads are empty — the request edge always,
// the reply edge only once a reply byte crossed it — on both ways to
// reach a site.
func TestZeroByteEdgesKeepTheirKey(t *testing.T) {
	mEmpty := NewMethod[dropResp, dropResp]("empty")
	build := func() *Cluster {
		c := NewCluster(3)
		for i := 0; i < c.NumSites(); i++ {
			RegisterFunc(c, SiteID(i), mEmpty, func(dropResp) (dropResp, error) { return dropResp{}, nil })
		}
		return c
	}
	for _, tr := range []struct {
		name    string
		cluster *Cluster
	}{{"loopback", build()}, {"tcp", remoteTwin(t, build())}} {
		if _, err := Call(tr.cluster.Lane(), 2, 0, mEmpty, dropResp{}); err != nil {
			t.Fatal(err)
		}
		st := tr.cluster.Stats()
		if want := map[string]int64{"2→0": 0}; !reflect.DeepEqual(st.PerPair, want) || st.Messages != 1 || st.Bytes != 0 {
			t.Errorf("%s: %d messages, %d bytes, PerPair %v; want 1, 0, %v", tr.name, st.Messages, st.Bytes, st.PerPair, want)
		}
	}
}

func TestStatsSubAndSim(t *testing.T) {
	c := NewCluster(2)
	wireEcho(c)
	if _, err := Call(c.Lane(), 0, 1, mEcho, echoReq{Text: "abc", N: 100}); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if _, err := Call(c.Lane(), 0, 1, mEcho, echoReq{Text: "abc", N: 100}); err != nil {
		t.Fatal(err)
	}
	window := c.Stats().Sub(before)
	if window.Messages != 1 {
		t.Errorf("window Messages = %d", window.Messages)
	}
	if s := c.Stats().SimParallelSeconds(1e6); s <= 0 {
		t.Error("SimParallelSeconds = 0 with byte cost")
	}
}

func TestErrorsPropagate(t *testing.T) {
	c := NewCluster(2)
	var nh *NoHandlerError
	if _, err := Call(c.Lane(), 0, 1, mEcho, echoReq{}); !errors.As(err, &nh) || nh.Site != 1 || nh.Method != "echo" {
		t.Errorf("unknown handler: %v", err)
	}
	if _, err := Call(c.Lane(), 0, 0, mEcho, echoReq{}); !errors.As(err, &nh) {
		t.Errorf("unknown local handler: %v", err)
	}
	if _, err := c.Dispatch(1, "echo", nil); !errors.As(err, &nh) {
		t.Errorf("unknown dispatched handler: %v", err)
	}
	if _, err := Call(c.Lane(), 0, 2, mEcho, echoReq{}); err == nil || errors.As(err, &nh) {
		t.Errorf("call to a site past the cluster: %v", err)
	}
}
