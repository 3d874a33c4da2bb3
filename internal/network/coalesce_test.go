package network

import (
	"slices"
	"testing"
)

// TestCoalescerResetDropsItems: a kept envelope must not pin a past
// batch. Reset zeroes the items it drops, so nothing they point to stays
// reachable through a queue's backing array, and the envelope then
// serves the next batch as a new one would.
func TestCoalescerResetDropsItems(t *testing.T) {
	var e Coalescer[*[]byte]
	reply := []byte("a past batch's reply")
	for i := 0; i < 3; i++ {
		e.Add(2, &reply)
	}
	e.Add(5, &reply)
	queued := e.Items(2)
	e.Reset()
	for i, it := range queued[:cap(queued)] {
		if it != nil {
			t.Fatalf("slot %d of a reset queue still points at its item", i)
		}
	}
	if !e.Empty() || len(e.Sites()) != 0 {
		t.Fatalf("reset envelope: empty %v, sites %v", e.Empty(), e.Sites())
	}
	e.Add(5, &reply)
	if sites := e.Sites(); !slices.Equal(sites, []SiteID{5}) || e.Len(2) != 0 || e.Len(5) != 1 {
		t.Fatalf("reused envelope: sites %v, %d and %d items", sites, e.Len(2), e.Len(5))
	}
}
