//go:build !race

package network

import "testing"

// TestInlineCallAllocs: a warm same-site call on a handle allocates
// nothing — no boxed request or reply, no reflection, no lookup by name —
// alone or in an inline round, whose lane the cluster keeps between
// rounds. A metered call allocates only the copies its sizing pass reads.
func TestInlineCallAllocs(t *testing.T) {
	c := NewCluster(4)
	for i := 0; i < c.NumSites(); i++ {
		RegisterFunc(c, SiteID(i), mEcho, func(req echoReq) (echoResp, error) { return echoResp{Text: req.Text}, nil })
	}
	req := echoReq{Text: "warm", N: 1}
	call := func(l *Lane, from, to SiteID) {
		if resp, err := Call(l, from, to, mEcho, req); err != nil || resp.Text != req.Text {
			t.Fatalf("call %d→%d: %v, %v", from, to, resp, err)
		}
	}
	sameSite := func(l *Lane, i int) error {
		call(l, SiteID(i), SiteID(i))
		return nil
	}
	crossSite := func(l *Lane, i int) error {
		call(l, 0, SiteID(i))
		return nil
	}
	for _, tc := range []struct {
		name string
		run  func()
		max  float64
	}{
		{"lone same-site call", func() { call(c.Lane(), 2, 2) }, 0},
		{"inline round of 4 same-site calls", func() { c.Fanout(4, sameSite) }, 0},
		{"lone metered call", func() { call(c.Lane(), 0, 3) }, 2},
		// The 4th index is site 0 calling itself: unmetered, free.
		{"inline round of 3 metered calls", func() { c.Fanout(4, crossSite) }, 6},
	} {
		if got := testing.AllocsPerRun(500, tc.run); got > tc.max {
			t.Errorf("%s: %v allocations, want at most %v", tc.name, got, tc.max)
		}
	}
}
