package session

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/workload"
)

// slowSource throttles a batch stream so a Run stays active long enough
// for concurrent readers to be observed against it.
type slowSource struct {
	src   Source
	delay time.Duration
}

func (s *slowSource) Next() (workload.Batch, bool) {
	time.Sleep(s.delay)
	return s.src.Next()
}

// TestReadsProgressDuringRun is the Run-holds-the-lock regression: PR 5
// held s.mu for the whole stream, so one long Run stalled every reader
// until the stream finished. Reads now answer from the latest published
// epoch without the lock — each concurrent Query must complete in
// bounded time while Run is active, and must observe fresh epochs as
// batches land.
func TestReadsProgressDuringRun(t *testing.T) {
	gen, rel, rules := tpch(t, 11, 300)
	s, err := Open(rel, rules[:3])
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const batches = 12
	src := &slowSource{
		src:   workload.NewStream(gen, rel, workload.StreamConfig{BatchSize: 30, Batches: batches}),
		delay: 25 * time.Millisecond,
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(context.Background(), src, RunOptions{})
		done <- err
	}()

	// Reads during the run: each must be fast, and collectively they
	// must see the read state advance (i.e. they are not just replaying
	// the pre-run state, nor waiting for the run to finish). Every
	// applied batch publishes a fresh readState even when ∆V is empty.
	var maxLatency time.Duration
	var lastEpoch uint64
	states := map[*readState]bool{}
	deadline := time.After(10 * time.Second)
	for len(states) < 4 {
		select {
		case err := <-done:
			t.Fatalf("run finished before readers saw 4 read states (saw %d): %v", len(states), err)
		case <-deadline:
			t.Fatalf("readers saw only %d read states in 10s", len(states))
		default:
		}
		t0 := time.Now()
		sn := s.Snapshot()
		_ = sn.Query(Limit(5))
		_ = sn.Count()
		_ = sn.Measures()
		if d := time.Since(t0); d > maxLatency {
			maxLatency = d
		}
		if e := sn.Epoch(); e < lastEpoch {
			t.Fatalf("epoch went backwards: %d after %d", e, lastEpoch)
		} else {
			lastEpoch = e
		}
		states[sn.st] = true
		time.Sleep(5 * time.Millisecond)
	}
	// "Bounded" with slack for a loaded CI box: a read that waited for
	// the run to finish would have taken ≥ batches·delay = 300ms.
	if maxLatency > 200*time.Millisecond {
		t.Errorf("read latency during Run reached %v; reads are blocking on the writer", maxLatency)
	}
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSnapshotIsConsistentCut pins that a Snapshot keeps answering from
// its own epoch while the session moves on, and that Watch events carry
// the epoch a fresh Snapshot then agrees with.
func TestSnapshotIsConsistentCut(t *testing.T) {
	gen, rel, rules := tpch(t, 12, 200)
	s, err := Open(rel, rules[:3])
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	before := s.Snapshot()
	wantQ := before.Query()
	wantC := before.Count()

	sub := s.Subscribe(4)
	mirror := rel.Clone()
	for i := 0; i < 3; i++ {
		updates := gen.Updates(mirror, 40, 0.6)
		if err := updates.Normalize().Apply(mirror); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyBatch(context.Background(), updates); err != nil {
			t.Fatal(err)
		}
		ev := <-sub.C()
		if ev.Epoch != s.Epoch() {
			t.Fatalf("batch %d: event epoch %d, session epoch %d", i, ev.Epoch, s.Epoch())
		}
		after := s.Snapshot()
		if after.Epoch() != ev.Epoch {
			t.Fatalf("batch %d: snapshot epoch %d, event epoch %d", i, after.Epoch(), ev.Epoch)
		}
		if got := len(after.Query()); got != ev.Violations {
			t.Fatalf("batch %d: snapshot has %d violations, event says %d", i, got, ev.Violations)
		}
	}
	// The old snapshot is untouched by three applied batches.
	if got := before.Query(); !reflect.DeepEqual(got, wantQ) {
		t.Fatalf("old snapshot's Query changed under writes:\n got %v\nwant %v", got, wantQ)
	}
	if got := before.Count(); !reflect.DeepEqual(got, wantC) {
		t.Fatalf("old snapshot's Count changed under writes:\n got %v\nwant %v", got, wantC)
	}
}

// TestStalledSubscriberGap is the silent-drop regression: a subscriber
// that falls behind must be able to see exactly how many events it
// missed — via the gap marker on the next delivered event, the
// subscription's Dropped() total, and the global Seq numbering — instead
// of silently diverging.
func TestStalledSubscriberGap(t *testing.T) {
	gen, rel, rules := tpch(t, 13, 150)
	s, err := Open(rel, rules[:3])
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sub := s.Subscribe(1) // deliberately tiny buffer, not drained
	mirror := rel.Clone()
	apply := func() {
		t.Helper()
		updates := gen.Updates(mirror, 10, 0.6)
		if err := updates.Normalize().Apply(mirror); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyBatch(context.Background(), updates); err != nil {
			t.Fatal(err)
		}
	}

	// Event 1 lands in the buffer; events 2..6 are dropped on the full
	// buffer while the subscriber stalls.
	const stalledBatches = 6
	for i := 0; i < stalledBatches; i++ {
		apply()
	}
	if got := sub.Dropped(); got != stalledBatches-1 {
		t.Fatalf("Dropped() = %d after stalling through %d events with buffer 1, want %d",
			got, stalledBatches, stalledBatches-1)
	}

	first := <-sub.C()
	if first.Seq != 1 || first.Dropped != 0 {
		t.Fatalf("first buffered event = Seq %d Dropped %d, want Seq 1 Dropped 0", first.Seq, first.Dropped)
	}
	// The subscriber wakes up: the next delivered event carries the gap.
	apply()
	next := <-sub.C()
	if next.Dropped != stalledBatches-1 {
		t.Fatalf("resumed event Dropped = %d, want %d", next.Dropped, stalledBatches-1)
	}
	if want := first.Seq + int(next.Dropped) + 1; next.Seq != want {
		t.Fatalf("Seq gap inconsistent with Dropped: Seq %d after %d, Dropped %d",
			next.Seq, first.Seq, next.Dropped)
	}
	// Once the subscriber keeps up, no further gaps accrue.
	apply()
	clean := <-sub.C()
	if clean.Dropped != 0 || clean.Seq != next.Seq+1 {
		t.Fatalf("keeping-up event = Seq %d Dropped %d, want Seq %d Dropped 0",
			clean.Seq, clean.Dropped, next.Seq+1)
	}
	if got := sub.Dropped(); got != stalledBatches-1 {
		t.Fatalf("Dropped() total = %d, want %d", got, stalledBatches-1)
	}
	sub.Cancel()
	sub.Cancel() // idempotent
	if _, ok := <-sub.C(); ok {
		t.Fatal("channel not closed by Cancel")
	}
}

// TestQueryFilterEdgeCases pins the intended total semantics of the
// filter combinators: no panics, no errors, deterministic answers.
func TestQueryFilterEdgeCases(t *testing.T) {
	gen, rel, rules := tpch(t, 17, 300)
	s, err := Open(rel, rules[:4])
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Churn until the fixture has violations, then retire one rule so a
	// retired id is queryable.
	mirror := rel.Clone()
	for i := 0; i < 10 && len(s.Query()) == 0; i++ {
		updates := gen.Updates(mirror, 60, 0.7)
		if err := updates.Normalize().Apply(mirror); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyBatch(context.Background(), updates); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.RemoveRules(rules[3].ID); err != nil {
		t.Fatal(err)
	}

	all := s.Query()
	if len(all) == 0 {
		t.Fatal("fixture has no violations")
	}
	someTuple := all[0].Tuple
	someRule := all[0].Rules[0]

	cases := []struct {
		name    string
		filters []Filter
		want    func(t *testing.T, got []Violation)
	}{
		{"negative limit is unlimited", []Filter{Limit(-5)}, func(t *testing.T, got []Violation) {
			if len(got) != len(all) {
				t.Errorf("got %d rows, want all %d", len(got), len(all))
			}
		}},
		{"zero limit is unlimited", []Filter{Limit(0)}, func(t *testing.T, got []Violation) {
			if len(got) != len(all) {
				t.Errorf("got %d rows, want all %d", len(got), len(all))
			}
		}},
		{"limit larger than answer", []Filter{Limit(len(all) + 100)}, func(t *testing.T, got []Violation) {
			if len(got) != len(all) {
				t.Errorf("got %d rows, want all %d", len(got), len(all))
			}
		}},
		{"unknown rule matches nothing", []Filter{ByRule("no-such-rule")}, func(t *testing.T, got []Violation) {
			if len(got) != 0 {
				t.Errorf("got %d rows, want 0", len(got))
			}
		}},
		{"retired rule matches nothing", []Filter{ByRule(rules[3].ID)}, func(t *testing.T, got []Violation) {
			if len(got) != 0 {
				t.Errorf("retired rule returned %d rows, want 0", len(got))
			}
		}},
		{"unknown among known rules is ignored", []Filter{ByRule(someRule, "no-such-rule")}, func(t *testing.T, got []Violation) {
			want := s.Query(ByRule(someRule))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("got %v, want %v", got, want)
			}
		}},
		{"duplicate tuples deduplicate", []Filter{ByTuple(someTuple, someTuple, someTuple)}, func(t *testing.T, got []Violation) {
			if len(got) != 1 || got[0].Tuple != someTuple {
				t.Errorf("got %v, want exactly one row for tuple %d", got, someTuple)
			}
		}},
		{"duplicate rules deduplicate", []Filter{ByRule(someRule, someRule)}, func(t *testing.T, got []Violation) {
			want := s.Query(ByRule(someRule))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("got %v, want %v", got, want)
			}
		}},
		{"absent tuple matches nothing", []Filter{ByTuple(relation.TupleID(1 << 50))}, func(t *testing.T, got []Violation) {
			if len(got) != 0 {
				t.Errorf("got %d rows, want 0", len(got))
			}
		}},
		{"empty ByTuple is no filter", []Filter{ByTuple()}, func(t *testing.T, got []Violation) {
			if len(got) != len(all) {
				t.Errorf("got %d rows, want all %d", len(got), len(all))
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.want(t, s.Query(tc.filters...)) })
	}
}

// TestConcurrentReadersUnderWriter races many readers against a writer
// applying batches; run with -race. Every reader must observe internally
// consistent snapshots (Count sums ≤ Query length × rules, epoch
// monotonic per reader).
func TestConcurrentReadersUnderWriter(t *testing.T) {
	gen, rel, rules := tpch(t, 15, 200)
	s, err := Open(rel, rules[:3])
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var stop atomic.Bool
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		go func() {
			var last uint64
			for !stop.Load() {
				sn := s.Snapshot()
				if e := sn.Epoch(); e < last {
					errs <- fmt.Errorf("epoch went backwards: %d after %d", e, last)
					return
				} else {
					last = e
				}
				q := sn.Query()
				if len(q) != sn.st.view.Len() {
					errs <- fmt.Errorf("snapshot torn: Query %d rows, Len %d", len(q), sn.st.view.Len())
					return
				}
			}
			errs <- nil
		}()
	}
	mirror := rel.Clone()
	for i := 0; i < 30; i++ {
		updates := gen.Updates(mirror, 20, 0.6)
		if err := updates.Normalize().Apply(mirror); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyBatch(context.Background(), updates); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	for r := 0; r < 4; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
