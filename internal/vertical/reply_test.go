package vertical

import (
	"bytes"
	"testing"
	"unsafe"

	"repro/internal/centralized"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/workload"
)

// scribbleReply overwrites the site's kept reply arrays, to their full
// capacity, with garbage: what a driver still holding a reply after the
// site's next call would read.
func (s *site) scribbleReply() {
	r := &s.reply
	fill(r.failed, ^uint64(0))
	fill(r.violations, ^uint64(0))
	fill(r.eqs, -1)
	fill(r.ids, -1)
	fill(r.at, -1)
	fill(r.rules, -1)
	fill(r.counts, -1)
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

// kept lists the identities of the site's kept reply arrays.
func (s *site) kept() [7]keptArray {
	r := &s.reply
	return [7]keptArray{keptOf(r.failed), keptOf(r.violations), keptOf(r.eqs), keptOf(r.ids),
		keptOf(r.at), keptOf(r.rules), keptOf(r.counts)}
}

// TestVerticalReplyArraysOutliveNoWave: a small v.batchEval,
// v.batchConst, v.batchResolve or v.batchRule reply shares the site's
// kept arrays until its next call of the method, so the driver must be
// done with it when the wave ends. Over 300 random unit updates on an
// in-process deployment, every site's kept arrays are overwritten with
// garbage after every Apply; V must still equal a fresh centralized
// detection after every step, and a site's checkpoint must not change
// when they are. The reuse must really happen — every kept array, once
// made, is the one every later small reply is carved from — and a reply
// past replyKeep (a seeding wave of 128, a call of replyKeep+1 tuples)
// gets arrays of its own, leaving the kept ones as they were.
func TestVerticalReplyArraysOutliveNoWave(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 7, 800)
	rel := gen.Relation(200)
	sys, hs := localSystem(t, rel, partition.RoundRobinVertical(rel.Schema, 3), gen.Rules(24), true)
	ss := make([]*site, len(hs))
	for i, h := range hs {
		ss[i] = h.st
	}
	mirror := rel.Clone()
	apply := func(step int, batch relation.UpdateList) {
		t.Helper()
		if _, err := sys.Apply(batch); err != nil {
			t.Fatal(err)
		}
		if err := batch.Normalize().Apply(mirror); err != nil {
			t.Fatal(err)
		}
		for _, s := range ss {
			s.scribbleReply()
		}
		if want := centralized.Detect(mirror, sys.Rules()); !sys.Violations().Equal(want) {
			t.Fatalf("step %d: V diverged from the centralized oracle once the replies were overwritten", step)
		}
	}

	first := make([][7]keptArray, len(ss))
	for step := 0; step < 300; step++ {
		apply(step, gen.Updates(mirror, 1, 0.5))
		for i, s := range ss {
			for k, a := range s.kept() {
				switch {
				case a.at == nil:
				case a.cap != replyKeep:
					t.Fatalf("step %d: site %d keeps a reply array of capacity %d, want %d", step, i, a.cap, replyKeep)
				case first[i][k].at == nil:
					first[i][k] = a
				case a != first[i][k]:
					t.Fatalf("step %d: site %d replaced kept reply array %d", step, i, k)
				}
			}
		}
	}
	made := make([]int, 7) // per array: the sites that made it
	for i := range ss {
		for k, a := range first[i] {
			if a.at != nil {
				made[k]++
			}
		}
	}
	for k, n := range made {
		if n == 0 {
			t.Errorf("no site ever carved a reply from kept array %d", k)
		}
	}

	// A seeding-sized wave answers in arrays of its own.
	apply(300, gen.Updates(mirror, 128, 1))
	for i, s := range ss {
		if s.kept() != first[i] {
			t.Errorf("site %d: a wave of 128 replaced its kept reply arrays", i)
		}
	}

	// Kept arrays are no site state: a checkpoint does not read them.
	for i, s := range ss {
		before, err := s.snapshotState()
		if err != nil {
			t.Fatal(err)
		}
		s.scribbleReply()
		if after, err := s.snapshotState(); err != nil || !bytes.Equal(before, after) {
			t.Errorf("site %d: overwriting the kept reply arrays changed the checkpoint (%v)", i, err)
		}
	}

	// At the handler: replyKeep tuples answer in the kept array,
	// replyKeep+1 in a fresh one.
	s := ss[0]
	var ids []int64
	s.frag.Each(func(tu relation.Tuple) bool {
		ids = append(ids, int64(tu.ID))
		return len(ids) <= replyKeep
	})
	if words(len(s.rules)) != 1 || len(ids) != replyKeep+1 {
		t.Fatalf("fixture: %d rule words, %d tuples at site 0", words(len(s.rules)), len(ids))
	}
	call := func(n int) (failed, violations []uint64) {
		eval, err := s.batchEval(batchEvalReq{Gen: s.gen, IDs: ids[:n]})
		if err != nil {
			t.Fatal(err)
		}
		verdict, err := s.batchConst(batchConstReq{Gen: s.gen, IDs: ids[:n], Rules: make([]uint64, n)})
		if err != nil {
			t.Fatal(err)
		}
		return eval.Failed, verdict.Violations
	}
	call(1) // site 0 may check no constants: make its arrays
	kept := s.kept()
	for _, n := range []int{replyKeep, replyKeep + 1} {
		failed, violations := call(n)
		inKept := keptOf(failed).at == kept[0].at && keptOf(violations).at == kept[1].at
		if inKept != (n <= replyKeep) {
			t.Errorf("a reply over %d tuples shares the kept arrays: %v, want %v", n, inKept, n <= replyKeep)
		}
		if s.kept() != kept {
			t.Errorf("a call over %d tuples replaced the kept reply arrays", n)
		}
	}
}
