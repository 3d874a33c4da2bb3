package cfd

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/relation"
)

// fingerprint captures everything a reader could observe through a
// snapshot, for stability checks.
func fingerprint(v *Violations) string {
	return fmt.Sprintf("len=%d marks=%d hist=%v set=%s", v.Len(), v.Marks(), v.View().Histogram(), v.String())
}

// TestEpochSnapshotMatchesLive drives a randomized mark workload and
// checks after every round that a fresh snapshot answers every read
// exactly like the live set (via Clone, which reads the live maps). The
// clone's first Publish builds its view in one walk of the marks, so the
// per-rule reads also compare incremental replay against a rebuild.
func TestEpochSnapshotMatchesLive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := NewViolations()
	rules := make([]RuleIdx, 12)
	names := make([]string, 12)
	for i := range rules {
		names[i] = fmt.Sprintf("phi%02d", i)
		rules[i] = v.Intern(names[i])
	}
	for round := 0; round < 40; round++ {
		for op := 0; op < 50; op++ {
			id := relation.TupleID(rng.Intn(200))
			idx := rules[rng.Intn(len(rules))]
			if rng.Intn(3) == 0 {
				v.RemoveIdx(id, idx)
			} else {
				v.AddIdx(id, idx)
			}
		}
		snap := v.Snapshot()
		live := v.Clone()
		if !snap.Equal(live) || !live.Equal(snap) {
			t.Fatalf("round %d: snapshot diverged from live:\nsnap: %s\nlive: %s", round, snap, live)
		}
		if snap.Len() != live.Len() || snap.Marks() != live.Marks() {
			t.Fatalf("round %d: counters diverged: snap %d/%d live %d/%d",
				round, snap.Len(), snap.Marks(), live.Len(), live.Marks())
		}
		sv, lv := snap.View(), live.Publish()
		if got, want := fmt.Sprint(sv.Histogram()), fmt.Sprint(lv.Histogram()); got != want {
			t.Fatalf("round %d: histogram %s, want %s", round, got, want)
		}
		if got, want := fmt.Sprint(snap.Tuples()), fmt.Sprint(live.Tuples()); got != want {
			t.Fatalf("round %d: tuples %s, want %s", round, got, want)
		}
		for _, name := range names {
			if got, want := fmt.Sprint(sv.TuplesOfRule(name)), fmt.Sprint(lv.TuplesOfRule(name)); got != want {
				t.Fatalf("round %d: TuplesOfRule(%s) %s, want %s", round, name, got, want)
			}
			if sv.CountRule(name) != lv.CountRule(name) {
				t.Fatalf("round %d: CountRule(%s) %d, want %d", round, name, sv.CountRule(name), lv.CountRule(name))
			}
		}
		if got, want := snap.String(), live.String(); got != want {
			t.Fatalf("round %d: String\n got %s\nwant %s", round, got, want)
		}
	}
}

// TestSnapshotStableUnderConcurrentWriter is the torn-read regression:
// before the epoch layer, Snapshot() returned a view *sharing the live
// maps*, so a reader holding a snapshot across a batch observed torn
// state (and the race detector flagged the access). An epoch snapshot
// must never change under a concurrent writer. Run with -race.
func TestSnapshotStableUnderConcurrentWriter(t *testing.T) {
	v := NewViolations()
	r1, r2 := v.Intern("phi1"), v.Intern("phi2")
	for i := 0; i < 500; i++ {
		v.AddIdx(relation.TupleID(i), r1)
		if i%3 == 0 {
			v.AddIdx(relation.TupleID(i), r2)
		}
	}
	snap := v.Snapshot()
	want := fingerprint(snap)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Reader: continuously re-reads the snapshot and checks it is frozen.
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
		id := relation.TupleID(i % 500)
		v.RemoveIdx(id, r1)
		v.AddIdx(relation.TupleID(1000+i), r2)
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
	// The new state is a *different* epoch, visible through a new snapshot.
	fresh := v.Snapshot()
	if fresh.Equal(snap) {
		t.Fatal("fresh snapshot should differ from the pre-churn one")
	}
	if fresh.View().Epoch() <= snap.View().Epoch() {
		t.Fatalf("epochs not monotonic: fresh %d, old %d", fresh.View().Epoch(), snap.View().Epoch())
	}
}

// TestEpochPublishIncrements pins the epoch lifecycle: publishes with no
// pending changes return the same view; real changes bump the epoch.
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

// TestEpochPendingOverflow drives enough un-published churn to overflow
// the pending log, then checks the rebuilt epoch is still exact.
func TestEpochPendingOverflow(t *testing.T) {
	v := NewViolations()
	r1, r2 := v.Intern("phi1"), v.Intern("phi2")
	v.AddIdx(1, r1)
	v.Snapshot() // arm tracking
	// Churn two marks far beyond 4·|V|+1024 flips without snapshotting.
	for i := 0; i < 3000; i++ {
		v.AddIdx(2, r2)
		v.RemoveIdx(2, r2)
	}
	if !v.track.overflow {
		t.Fatal("pending log did not overflow")
	}
	v.AddIdx(5, r2)
	snap := v.Snapshot()
	if !snap.Equal(v.Clone()) {
		t.Fatalf("post-overflow snapshot diverged: %s vs %s", snap, v.Clone())
	}
	if v.track.overflow {
		t.Fatal("overflow flag not cleared by rebuild")
	}
	// Tracking resumes incrementally after the rebuild.
	v.AddIdx(6, r1)
	snap2 := v.Snapshot()
	if !snap2.Has(6) || snap2.View().Epoch() != snap.View().Epoch()+1 {
		t.Fatalf("post-rebuild publish wrong: has6=%v epochs %d→%d",
			snap2.Has(6), snap.View().Epoch(), snap2.View().Epoch())
	}
}

// TestEpochSpilledRules exercises the multi-word bitset path: rule
// indexes past 64 spill both the live markSet and the epoch leaves.
func TestEpochSpilledRules(t *testing.T) {
	v := NewViolations()
	var idxs []RuleIdx
	for i := 0; i < 70; i++ {
		idxs = append(idxs, v.Intern(fmt.Sprintf("phi%03d", i)))
	}
	for i, idx := range idxs {
		v.AddIdx(relation.TupleID(i%5), idx)
	}
	snap := v.Snapshot()
	if !snap.Equal(v.Clone()) {
		t.Fatalf("spilled snapshot diverged:\nsnap %s\nlive %s", snap, v.Clone())
	}
	if !snap.HasRule(4, "phi069") {
		t.Fatal("spilled mark (idx 69) missing from snapshot")
	}
	v.RemoveIdx(4, idxs[69])
	snap2 := v.Snapshot()
	if snap2.HasRule(4, "phi069") || !snap.HasRule(4, "phi069") {
		t.Fatal("spilled removal leaked across epochs")
	}
}

// TestSnapshotOfSnapshot pins that snapshotting a snapshot is the
// identity, and that Clone materializes a mutable copy of a snapshot.
func TestSnapshotOfSnapshot(t *testing.T) {
	v := NewViolations()
	v.Add(1, "phi")
	snap := v.Snapshot()
	again := snap.Snapshot()
	if again.View() != snap.View() {
		t.Fatal("snapshot of a snapshot is not the same epoch")
	}
	c := snap.Clone()
	c.Add(2, "psi") // must not panic: clones are mutable
	if snap.Has(2) {
		t.Fatal("mutating a clone leaked into the snapshot")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mutating a snapshot did not panic")
		}
	}()
	snap.Add(3, "chi")
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
	snap := v.Snapshot()
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
		s := v.Snapshot()
		if s.Has(k) || s.Len() != len(keys)-i-1 {
			t.Fatalf("after removing %d: has=%v len=%d", k, s.Has(k), s.Len())
		}
	}
	if v.Snapshot().View().marks != nil {
		t.Fatal("emptied trie did not prune to nil")
	}
}
