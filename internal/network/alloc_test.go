//go:build !race

package network

import "testing"

// callRound is the state an inline round's body reads: the caller's
// request and a tally the body writes back.
type callRound struct {
	t       *testing.T
	req     echoReq
	from    SiteID // -1: each index calls itself
	replies int
}

func (r *callRound) call(l *Lane, from, to SiteID) {
	if resp, err := Call(l, from, to, mEcho, r.req); err != nil || resp.Text != r.req.Text {
		r.t.Fatalf("call %d→%d: %v, %v", from, to, resp, err)
	}
	r.replies++
}

// TestInlineCallAllocs: a warm call on a handle allocates nothing — no
// boxed request or reply, no reflection, no lookup by name, and a
// metered call's sizing pass reads the values in a slot its handle keeps
// — alone or in an inline round, whose lane the cluster keeps between
// rounds and whose body, a static func over the caller's state, is no
// closure. While the sizing pass read copies that escaped to the heap,
// and the round body was a closure, a metered call cost 2 and a round of
// three 6.
func TestInlineCallAllocs(t *testing.T) {
	c := NewCluster(4)
	for i := 0; i < c.NumSites(); i++ {
		RegisterFunc(c, SiteID(i), mEcho, func(req echoReq) (echoResp, error) { return echoResp{Text: req.Text}, nil })
	}
	same := &callRound{t: t, req: echoReq{Text: "warm", N: 1}, from: -1}
	cross := &callRound{t: t, req: echoReq{Text: "warm", N: 1}, from: 0}
	body := func(r *callRound, l *Lane, i int) error {
		from := r.from
		if from < 0 {
			from = SiteID(i)
		}
		r.call(l, from, SiteID(i))
		return nil
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"lone same-site call", func() { same.call(c.Lane(), 2, 2) }},
		{"inline round of 4 same-site calls", func() { Fanout(c, 4, same, body) }},
		{"lone metered call", func() { cross.call(c.Lane(), 0, 3) }},
		// The 4th index is site 0 calling itself: unmetered, free.
		{"inline round of 3 metered calls", func() { Fanout(c, 4, cross, body) }},
	} {
		if got := testing.AllocsPerRun(500, tc.run); got != 0 {
			t.Errorf("%s: %v allocations, want 0", tc.name, got)
		}
	}
	// The body read the caller's request and wrote its tally back.
	if want := 501 * 4; same.replies < want || cross.replies < want {
		t.Errorf("rounds made %d and %d calls, want at least %d each", same.replies, cross.replies, want)
	}
}
