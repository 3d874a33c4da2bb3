package wiretest

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/network"
	"repro/internal/wire"
)

// Handle is one of a protocol package's method handles with its request
// and reply types erased, so a test can hold the package's handles in one
// list and run the same checks over each.
type Handle struct {
	name string
	// call makes one in-process call of the handle on c, from → to,
	// with a zero request.
	call  func(c *network.Cluster, from, to network.SiteID) error
	meter func(t *testing.T, data []byte)
}

// HandleOf wraps m. Its metering check runs on a two-site cluster of its
// own, where site 1 serves m with a stub that answers the reply under
// test.
func HandleOf[Req, Resp any](m *network.Method[Req, Resp]) Handle {
	var reply Resp
	c := network.NewCluster(2)
	network.RegisterFunc(c, 1, m, func(Req) (Resp, error) { return reply, nil })
	return Handle{
		name: m.Name(),
		call: func(c *network.Cluster, from, to network.SiteID) error {
			var req Req
			_, err := network.Call(c.Lane(), from, to, m, req)
			return err
		},
		meter: func(t *testing.T, data []byte) {
			t.Helper()
			var req Req
			reqErr := wire.Unmarshal(data, &req)
			if reqErr != nil {
				req = *new(Req)
			}
			replyErr := wire.Unmarshal(data, &reply)
			if replyErr != nil {
				reply = *new(Resp)
			}
			if reqErr != nil && replyErr != nil {
				return // two zero values: nothing the seeds do not cover
			}
			checkMeter(t, c, m.Name(), req, reply, func() error {
				_, err := network.Call(c.Lane(), 0, 1, m, req)
				return err
			})
		},
	}
}

// CheckMeter decodes data as the handle's request and as its reply (a
// part that does not decode is the zero value; when neither does, there
// is nothing to check) and checks that a metered
// in-process call of the two costs what the wire ships: one message, the
// Marshal length of the request on the 0→1 edge and of the reply on
// 1→0. It also checks that Dispatch, by the handle's name, answers the
// reply's Marshal bytes for the request's.
func (h Handle) CheckMeter(t *testing.T, data []byte) {
	t.Helper()
	h.meter(t, data)
}

func checkMeter(t *testing.T, c *network.Cluster, name string, req, reply any, call func() error) {
	t.Helper()
	reqBytes, err := wire.Marshal(req)
	if err != nil {
		t.Fatalf("%s: Marshal request: %v", name, err)
	}
	replyBytes, err := wire.Marshal(reply)
	if err != nil {
		t.Fatalf("%s: Marshal reply: %v", name, err)
	}
	before := c.Stats()
	if err := call(); err != nil {
		t.Fatalf("%s: call: %v", name, err)
	}
	d := c.Stats().Sub(before)
	want := map[string]int64{} // a window holds the edges that moved
	if len(reqBytes) > 0 {
		want["0→1"] = int64(len(reqBytes))
	}
	if len(replyBytes) > 0 {
		want["1→0"] = int64(len(replyBytes))
	}
	if d.Messages != 1 || d.Bytes != int64(len(reqBytes)+len(replyBytes)) || fmt.Sprint(d.PerPair) != fmt.Sprint(want) {
		t.Fatalf("%s: metered %d messages, %d bytes, edges %v; Marshal gives %d + %d bytes, edges %v",
			name, d.Messages, d.Bytes, d.PerPair, len(reqBytes), len(replyBytes), want)
	}
	got, err := c.Dispatch(1, name, reqBytes)
	if err != nil {
		t.Fatalf("%s: Dispatch: %v", name, err)
	}
	if !bytes.Equal(got, replyBytes) {
		t.Fatalf("%s: Dispatch answered %x, Marshal of the reply is %x", name, got, replyBytes)
	}
}

// CheckHandles holds a package's declared handles to the sites of reg:
// their names are exactly what every site registers, and each reaches
// every site both ways — a typed call on the handle and a Dispatch by
// its name, answered by the handler (an error from a zero request is
// fine; a missing handler is not). A handle no site registered, whether
// its index falls inside a site's table or past it, gets the typed
// missing-handler error, not a panic.
func CheckHandles(t *testing.T, reg *network.Cluster, handles []Handle) {
	t.Helper()
	var names []string
	for _, h := range handles {
		names = append(names, h.name)
	}
	slices.Sort(names)
	var nh *network.NoHandlerError
	for i := 0; i < reg.NumSites(); i++ {
		site := network.SiteID(i)
		if registered := reg.Methods(site); !slices.Equal(names, registered) {
			t.Errorf("site %d: handles declared ≠ methods registered\ndeclared:   %v\nregistered: %v", i, names, registered)
		}
		for _, h := range handles {
			if err := h.call(reg, site, site); errors.As(err, &nh) {
				t.Errorf("site %d: call on handle %s: %v", i, h.name, err)
			}
			if _, err := reg.Dispatch(site, h.name, nil); errors.As(err, &nh) {
				t.Errorf("site %d: Dispatch of %s: %v", i, h.name, err)
			}
		}
	}

	// inside is declared before past, so its index lies inside the table
	// of a site that registers past, and past every other site's.
	inside := network.NewMethod[struct{}, struct{}]("test.inside")
	past := network.NewMethod[struct{}, struct{}]("test.past")
	network.RegisterFunc(reg, 0, past, func(struct{}) (struct{}, error) { return struct{}{}, nil })
	for i := 0; i < reg.NumSites(); i++ {
		for _, m := range []*network.Method[struct{}, struct{}]{inside, past} {
			_, err := network.Call(reg.Lane(), 0, network.SiteID(i), m, struct{}{})
			if registered := i == 0 && m == past; registered != (err == nil) || (err != nil && (!errors.As(err, &nh) || nh.Site != network.SiteID(i) || nh.Method != m.Name())) {
				t.Errorf("site %d, %s: call returned %v", i, m.Name(), err)
			}
		}
	}
}
