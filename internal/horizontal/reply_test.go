package horizontal

import (
	"testing"
	"unsafe"

	"repro/internal/centralized"
	"repro/internal/partition"
	"repro/internal/relation"
)

// scribbleReply overwrites the site's kept reply arrays, to their full
// capacity, with garbage: what a driver still holding a reply after the
// site's next call would read.
func (s *site) scribbleReply() {
	r := &s.reply
	keys := r.keys[:cap(r.keys)]
	for i := range keys {
		keys[i] = 0xa5
	}
	junk := keys[:min(len(keys), codeLen)]
	fill(r.bs, junk)
	fill(r.ids, -1)
	fill(r.wasInV, true)
	fill(r.groups, touchedGroup{Rule: "garbage", X: junk, PreKnown: true, PreFlag: true, Structural: true, NewB: true,
		AnyIn: true, AnyOut: true, PostBs: [][]byte{junk}, Inserted: []int64{-1}, Deleted: []int64{-1}, DeletedWasInV: []bool{true}})
	fill(r.consts, constMark{Rule: "garbage", ID: -1, Add: true})
}

// fill sets every element of s's array, to its capacity, to v.
func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// keptArray is the identity of a kept reply array: its first element's
// address and its capacity.
type keptArray struct {
	at  unsafe.Pointer
	cap int
}

func keptOf[T any](s []T) keptArray { return keptArray{unsafe.Pointer(unsafe.SliceData(s)), cap(s)} }

// TestReplyArraysOutliveNoWave: an h.batchApply reply shares the site's
// kept arrays until its next call, so the driver must be done with it
// when the wave ends. Over 300 random unit updates on an in-process
// deployment, every site's kept reply arrays are overwritten with
// garbage after every ApplyBatch; V must still equal a fresh centralized
// detection after every step. And the reuse must really happen: a small
// call whose reply fits the arrays the site kept from its last call must
// come back in those same arrays.
func TestReplyArraysOutliveNoWave(t *testing.T) {
	gen, rel, _, rules := dispatchFixture()
	sys, hs := localSystem(t, rel, partition.HashHorizontal("c_name", 4), rules, Options{})
	ss := sites(hs)
	mirror := rel.Clone()
	reused := 0
	for step := 0; step < 300; step++ {
		batch := gen.Updates(mirror, 1, 0.5)
		owner, err := sys.scheme.SiteFor(sys.schema, batch[0].Tuple)
		if err != nil {
			t.Fatal(err)
		}
		s, u := ss[owner], batchApplyItem{Op: OpInsert, ID: int64(batch[0].Tuple.ID), Values: batch[0].Tuple.Values}
		if batch[0].Kind == relation.Delete {
			u.Op = OpDelete
		}
		touched, _ := touchedGroups(s, []batchApplyItem{u})
		n := len(touched)
		groups, keys := keptOf(s.reply.groups), keptOf(s.reply.keys)
		if _, err := sys.Apply(batch); err != nil {
			t.Fatal(err)
		}
		if err := batch.Normalize().Apply(mirror); err != nil {
			t.Fatal(err)
		}
		if n > replyKeep {
			t.Fatalf("step %d: a unit update touched %d groups", step, n)
		}
		if len(s.reply.groups) != n {
			t.Fatalf("step %d: site %d kept a reply of %d groups, its call touched %d", step, owner, len(s.reply.groups), n)
		}
		if n <= groups.cap && 3*n*codeLen <= keys.cap {
			if keptOf(s.reply.groups) != groups || keptOf(s.reply.keys) != keys {
				t.Fatalf("step %d: site %d answered %d groups, which fit the arrays it kept (room for %d), in new ones",
					step, owner, n, groups.cap)
			}
			if n > 0 {
				reused++
			}
		}
		for _, s := range ss {
			s.scribbleReply()
		}
		if want := centralized.Detect(mirror, sys.Rules()); !sys.Violations().Equal(want) {
			t.Fatalf("step %d: V diverged from the centralized oracle once the replies were overwritten", step)
		}
	}
	t.Logf("%d of 300 calls answered in the arrays their site kept", reused)
	if reused < 250 {
		t.Errorf("only %d of 300 calls could answer in the arrays their site kept", reused)
	}
}
