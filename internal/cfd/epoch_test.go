package cfd

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/relation"
)

// viewString renders a view the way Violations.String renders a live
// set: ascending tuples, each with its sorted rules.
func viewString(e *EpochView) string {
	var sb strings.Builder
	for i, id := range e.Tuples() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "t%d{%s}", id, strings.Join(e.Rules(id), ","))
	}
	return "{" + sb.String() + "}"
}

// fingerprint captures everything a reader could observe through a
// view, the per-rule postings included, for stability checks.
func fingerprint(e *EpochView) string {
	var post strings.Builder
	for _, rule := range e.rs.names {
		fmt.Fprintf(&post, " %s=%v", rule, e.TuplesOfRule(rule))
	}
	return fmt.Sprintf("len=%d marks=%d hist=%v set=%s post:%s", e.Len(), e.Marks(), e.Histogram(), viewString(e), post.String())
}

// TestEpochSnapshotMatchesLive drives a randomized mark workload and
// checks after every round that the published view, the writer itself
// and a clone's first view all answer every read exactly like the model.
func TestEpochSnapshotMatchesLive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v, m := NewViolations(), model{}
	rules := make([]RuleIdx, 12)
	for i := range rules {
		rules[i] = v.Intern(fmt.Sprintf("phi%02d", i))
	}
	for round := 0; round < 40; round++ {
		for op := 0; op < 50; op++ {
			mark(v, m, relation.TupleID(rng.Intn(200)), rules[rng.Intn(len(rules))], rng.Intn(3) != 0)
		}
		view, cloned := v.Publish(), v.Clone().Publish()
		for name, e := range map[string]*EpochView{"published": view, "writer": &v.EpochView, "clone's": cloned} {
			if d := m.mismatch(e); d != "" {
				t.Fatalf("round %d: %s view diverged from the model: %s", round, name, d)
			}
		}
	}
}

// TestSnapshotStableUnderConcurrentWriter is the torn-read regression:
// before the epoch layer, a snapshot *shared the live maps*, so a reader
// holding one across a batch observed torn state (and the race detector
// flagged the access). A published view must never change under a
// concurrent writer. Run with -race.
func TestSnapshotStableUnderConcurrentWriter(t *testing.T) {
	v, m := NewViolations(), model{}
	r1, r2 := v.Intern("phi1"), v.Intern("phi2")
	for i := 0; i < 500; i++ {
		mark(v, m, relation.TupleID(i), r1, true)
		if i%3 == 0 {
			mark(v, m, relation.TupleID(i), r2, true)
		}
	}
	snap := v.Publish()
	want := fingerprint(snap)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Reader: continuously re-reads the view and checks it never changes.
	var readerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := fingerprint(snap); got != want {
				readerErr = fmt.Errorf("snapshot changed under writer:\n got %.120s\nwant %.120s", got, want)
				return
			}
		}
	}()
	// Writer: churns the live set and publishes new epochs all along.
	for i := 0; i < 300; i++ {
		mark(v, m, relation.TupleID(i%500), r1, false)
		mark(v, m, relation.TupleID(1000+i), r2, true)
		if i%7 == 0 {
			v.Publish()
		}
	}
	v.Publish()
	close(stop)
	wg.Wait()
	if readerErr != nil {
		t.Fatal(readerErr)
	}
	if got := fingerprint(snap); got != want {
		t.Fatalf("snapshot changed after writer finished:\n got %.120s\nwant %.120s", got, want)
	}
	// The new state is a *different* epoch, visible through a new view.
	fresh := v.Publish()
	if fingerprint(fresh) == want {
		t.Fatal("fresh view should differ from the pre-churn one")
	}
	if d := m.mismatch(fresh); d != "" {
		t.Fatalf("fresh view diverged from the model: %s", d)
	}
	if fresh.Epoch() <= snap.Epoch() {
		t.Fatalf("epochs not monotonic: fresh %d, old %d", fresh.Epoch(), snap.Epoch())
	}
}

// TestHeldViewsNeverChange keeps every view a seeded writer publishes
// and checks, once the writer is done, that each still reads exactly as
// it did when it was published. The writer changes the nodes of its own
// build in place, so the workload mixes what could leak such a change
// into an older view: bursts of flips on keys that share trie nodes (one
// build reaching the same nodes many times), rules interned past 64
// (spilled leaves, whose words older leaves share), ClearRules
// removals, long unpublished churn (one build of thousands of flips),
// and a Clone mid-history whose writes must reach neither the original
// nor any view.
func TestHeldViewsNeverChange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	v, m := NewViolations(), model{}
	var names []string
	var rules []RuleIdx
	intern := func(n int) {
		for i := 0; i < n; i++ {
			names = append(names, fmt.Sprintf("phi%03d", len(names)))
			rules = append(rules, v.Intern(names[len(names)-1]))
		}
	}
	// key draws from 8 root slots × 48 second-level slots × 3 high
	// parts: keys equal below bit 36 hang under one chain of
	// single-child nodes, and every burst reaches a few shared nodes.
	key := func() relation.TupleID {
		return relation.TupleID(rng.Intn(3))<<36 | relation.TupleID(rng.Intn(48))<<6 | relation.TupleID(rng.Intn(8))
	}
	// rule favours the newest rules, so spilled bits flip too.
	rule := func() RuleIdx {
		if rng.Intn(2) == 0 {
			return rules[len(rules)-1-rng.Intn(min(16, len(rules)))]
		}
		return rules[rng.Intn(len(rules))]
	}
	flip := func(v *Violations, m model) {
		mark(v, m, key(), rule(), rng.Intn(3) != 0)
	}
	type held struct {
		view *EpochView
		fp   string
	}
	var views []held
	publish := func() {
		e := v.Publish()
		if n := len(views); n == 0 || views[n-1].view != e {
			views = append(views, held{e, fingerprint(e)})
		}
	}
	intern(8)
	var clone *Violations
	var cloneModel model
	for round := 0; round < 150; round++ {
		switch {
		case round%10 == 9:
			intern(12) // 68 rules by round 49, 128 by the end
		case round%17 == 8:
			retire := []string{names[rng.Intn(len(names))], names[rng.Intn(len(names))]}
			v.ClearRules(retire)
			for id := range m {
				m.set(id, retire[0], false)
				m.set(id, retire[1], false)
			}
		case round == 70 || round == 120:
			for i := 0; i < 5000; i++ {
				flip(v, m)
			}
		case round == 95:
			clone, cloneModel = v.Clone(), m.clone()
			for i := 0; i < 2000; i++ {
				flip(clone, cloneModel)
			}
		}
		for i := rng.Intn(80); i >= 0; i-- {
			flip(v, m)
		}
		publish()
	}
	if len(views) < 140 {
		t.Fatalf("workload too weak: %d views", len(views))
	}
	for _, h := range views {
		if got := fingerprint(h.view); got != h.fp {
			t.Fatalf("epoch %d changed after it was published:\n got %.300s\nwant %.300s", h.view.Epoch(), got, h.fp)
		}
	}
	if d := m.mismatch(views[len(views)-1].view); d != "" {
		t.Fatalf("last view diverged from the model: %s", d)
	}
	if d := cloneModel.mismatch(clone.Publish()); d != "" {
		t.Fatalf("clone diverged from its model: %s", d)
	}
}

// TestEpochPublishIncrements pins the epoch lifecycle: publishes with no
// changes return the same view; real changes bump the epoch.
func TestEpochPublishIncrements(t *testing.T) {
	v := NewViolations()
	r := v.Intern("phi")
	v.AddIdx(1, r)
	e1 := v.Publish()
	if e1.Epoch() != 1 {
		t.Fatalf("first epoch = %d, want 1", e1.Epoch())
	}
	if e2 := v.Publish(); e2 != e1 {
		t.Fatalf("no-op publish produced a new view (epoch %d)", e2.Epoch())
	}
	v.AddIdx(2, r)
	e3 := v.Publish()
	if e3.Epoch() != 2 || !e3.Has(2) || e1.Has(2) {
		t.Fatalf("epoch 2 wrong: epoch=%d has2=%v oldHas2=%v", e3.Epoch(), e3.Has(2), e1.Has(2))
	}
	// Add+remove between publishes nets out but still replays exactly.
	v.AddIdx(3, r)
	v.RemoveIdx(3, r)
	e4 := v.Publish()
	if e4.Has(3) || e4.Len() != 2 {
		t.Fatalf("netted-out mark leaked: has3=%v len=%d", e4.Has(3), e4.Len())
	}
}

// TestEpochSpilledRules exercises the multi-word bitset path: rule
// indexes past 64 spill the trie leaves to multi-word bitsets.
func TestEpochSpilledRules(t *testing.T) {
	v, m := NewViolations(), model{}
	var idxs []RuleIdx
	for i := 0; i < 70; i++ {
		idxs = append(idxs, v.Intern(fmt.Sprintf("phi%03d", i)))
	}
	for i, idx := range idxs {
		mark(v, m, relation.TupleID(i%5), idx, true)
	}
	snap := v.Publish()
	if d := m.mismatch(snap); d != "" {
		t.Fatalf("spilled view diverged: %s", d)
	}
	if !snap.HasRule(4, "phi069") {
		t.Fatal("spilled mark (idx 69) missing from view")
	}
	v.RemoveIdx(4, idxs[69])
	snap2 := v.Publish()
	if snap2.HasRule(4, "phi069") || !snap.HasRule(4, "phi069") {
		t.Fatal("spilled removal leaked across epochs")
	}
}

// TestAMTSparseKeys hits the trie's collision/merge paths with keys that
// collide on low slots and spread across the full 64-bit range.
func TestAMTSparseKeys(t *testing.T) {
	keys := []relation.TupleID{
		0, 1, 63, 64, 65, 4096, 4097, 1 << 20, 1<<20 + 64, 1 << 40, 1<<40 + 1, 1<<62 + 12345,
		(1 << 62) + 12345 + (1 << 30), // shares many low chunks with the previous
	}
	v := NewViolations()
	r := v.Intern("phi")
	for _, k := range keys {
		v.AddIdx(k, r)
	}
	snap := v.Publish()
	for _, k := range keys {
		if !snap.Has(k) {
			t.Fatalf("key %d missing", k)
		}
	}
	if snap.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", snap.Len(), len(keys))
	}
	for i, k := range keys {
		v.RemoveIdx(k, r)
		s := v.Publish()
		if s.Has(k) || s.Len() != len(keys)-i-1 {
			t.Fatalf("after removing %d: has=%v len=%d", k, s.Has(k), s.Len())
		}
	}
	if root := v.Publish().marks; root != nil && (len(root.leaves) > 0 || len(root.nodes) > 0) {
		t.Fatal("emptied trie kept entries")
	}
}
