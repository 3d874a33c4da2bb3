package network

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/netwire"
)

type echoReq struct {
	Text string
	N    int
}

type echoResp struct {
	Text string
}

func wireEcho(c *Cluster) {
	for i := 0; i < c.NumSites(); i++ {
		site := SiteID(i)
		network := c
		RegisterFunc(network, site, "echo", func(req echoReq) (echoResp, error) {
			return echoResp{Text: strings.Repeat(req.Text, req.N)}, nil
		})
	}
}

func TestLocalCallsAreUnmetered(t *testing.T) {
	c := NewCluster(3)
	wireEcho(c)
	var resp echoResp
	if err := c.Call(1, 1, "echo", echoReq{Text: "ab", N: 2}, &resp); err != nil {
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
	var resp echoResp
	for i := 0; i < 5; i++ {
		if err := c.Call(0, 2, "echo", echoReq{Text: "hello", N: 3}, &resp); err != nil {
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

type dropResp struct{}

// TestMeterIsPayloadLength pins the one definition of a shipped byte on
// both ways to reach a site: a cross-site call is one message costing
// len(Marshal(request)) + len(Marshal(reply)) — the reply counted even
// when the caller discards it — and a same-site call costs nothing.
func TestMeterIsPayloadLength(t *testing.T) {
	build := func() *Cluster {
		c := NewCluster(3)
		wireEcho(c)
		for i := 0; i < c.NumSites(); i++ {
			RegisterFunc(c, SiteID(i), "drop", func(echoReq) (dropResp, error) { return dropResp{}, nil })
		}
		return c
	}
	size := func(v any) int64 {
		b, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(b))
	}
	req := echoReq{Text: "héllo", N: 300}
	echoed := echoResp{Text: strings.Repeat(req.Text, req.N)}
	cases := []struct {
		name      string
		from, to  SiteID
		method    string
		reply     any
		msgs      int64
		req, resp int64
	}{
		{"cross-site with reply", 0, 2, "echo", new(echoResp), 1, size(req), size(echoed)},
		{"fire-and-forget", 1, 0, "drop", nil, 1, size(req), size(dropResp{})},
		{"discarded reply", 2, 1, "echo", nil, 1, size(req), size(echoed)},
		{"same-site", 1, 1, "echo", new(echoResp), 0, 0, 0},
	}
	for _, tr := range []struct {
		name    string
		cluster *Cluster
	}{{"loopback", build()}, {"tcp", remoteTwin(t, build())}} {
		c := tr.cluster
		for _, tc := range cases {
			before := c.Stats()
			if err := c.Call(tc.from, tc.to, tc.method, req, tc.reply); err != nil {
				t.Fatalf("%s/%s: %v", tr.name, tc.name, err)
			}
			if r, ok := tc.reply.(*echoResp); ok && *r != echoed {
				t.Errorf("%s/%s: reply %q", tr.name, tc.name, r.Text)
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

func TestStatsSubAndSim(t *testing.T) {
	c := NewCluster(2)
	wireEcho(c)
	var resp echoResp
	if err := c.Call(0, 1, "echo", echoReq{Text: "abc", N: 100}, &resp); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if err := c.Call(0, 1, "echo", echoReq{Text: "abc", N: 100}, &resp); err != nil {
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
	if err := c.Call(0, 1, "nope", echoReq{}, nil); err == nil {
		t.Error("unknown handler succeeded")
	}
	if err := c.Call(0, 0, "nope", echoReq{}, nil); err == nil {
		t.Error("unknown local handler succeeded")
	}
}
