package session

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cfd"
	"repro/internal/partition"
	"repro/internal/relation"
)

// The workload plans the parity suite runs on have cross-site depth 1.
// deepFixture builds one of depth 2: R(A, B, C, D) over three sites with
// A and D at site 0, B at site 1, C at site 2, so the §4 chain of
// [A, B, C] → D is A@0 → AB@1 → ABC@2 — two cross-site hops, three
// resolve stages. The constant-pattern rules make alive sets (and so
// schedules) differ between the tuples of one wave.
func deepFixture(t *testing.T, seed int64) (*relation.Relation, *partition.VerticalScheme, []cfd.CFD, []relation.UpdateList) {
	t.Helper()
	schema := relation.MustSchema("R", "A", "B", "C", "D")
	scheme, err := partition.NewVerticalScheme(schema, 3, map[string][]int{
		"A": {0}, "D": {0}, "B": {1}, "C": {2},
	})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := cfd.ParseAll(`
chain: ([A, B, C] -> [D], (_, _, _, _))
pair: ([A, B] -> [C], (_, _, _))
some: ([B, C] -> [D], (b1, _, _))
konst: ([A, C] -> [D], (a0, c0, d0))
`)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	next := relation.TupleID(1)
	tuple := func() relation.Tuple {
		id := next
		next++
		return relation.Tuple{ID: id, Values: []string{
			fmt.Sprintf("a%d", rng.Intn(3)), fmt.Sprintf("b%d", rng.Intn(3)),
			fmt.Sprintf("c%d", rng.Intn(2)), fmt.Sprintf("d%d", rng.Intn(3)),
		}}
	}
	rel := relation.New(schema)
	var live []relation.Tuple
	for i := 0; i < 60; i++ {
		tp := tuple()
		rel.MustInsert(tp)
		live = append(live, tp)
	}
	var batches []relation.UpdateList
	for b := 0; b < 6; b++ {
		var batch relation.UpdateList
		for k := 0; k < 16; k++ {
			if rng.Float64() < 0.35 && len(live) > 0 {
				at := rng.Intn(len(live))
				batch = append(batch, relation.Update{Kind: relation.Delete, Tuple: live[at]})
				live = slices.Delete(live, at, at+1)
			} else {
				tp := tuple()
				batch = append(batch, relation.Update{Kind: relation.Insert, Tuple: tp})
				live = append(live, tp)
			}
		}
		batches = append(batches, batch)
	}
	return rel, scheme, rules, batches
}

// deepSystem opens the fixture's system over a clone of rel.
func deepSystem(t *testing.T, rel *relation.Relation, scheme *partition.VerticalScheme, rules []cfd.CFD, extra ...Option) *Session {
	t.Helper()
	sys := mustOpen(t, rel.Clone(), rules, append([]Option{WithVertical(scheme)}, extra...)...)
	if d := slices.Max(sys.Plan().Stages()); d < 2 {
		t.Fatalf("fixture plan has depth %d, want >= 2:\n%s", d, sys.Plan().Describe())
	}
	return sys
}

// TestUnitCoalescedParityDeepPlan is TestUnitCoalescedParity on a plan
// of depth 2, where the stage runner needs three resolve rounds and
// eqids produced in one stage are consumed in the next.
func TestUnitCoalescedParityDeepPlan(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		mirror, scheme, rules, batches := deepFixture(t, seed)
		step := deepSystem(t, mirror, scheme, rules)
		whole := deepSystem(t, mirror, scheme, rules)
		v0 := whole.Violations().Clone()
		for i, batch := range batches {
			checkCut(t, fmt.Sprintf("seed %d batch %d", seed, i), step, whole, mirror, batch)
		}
		stepNet, wholeNet := cfd.DeltaBetween(v0, step.Violations()), cfd.DeltaBetween(v0, whole.Violations())
		if stepNet.String() != wholeNet.String() {
			t.Fatalf("seed %d: net ∆V diverged:\nupdate by update: %v\nwhole batches:    %v", seed, stepNet, wholeNet)
		}
		checkMeters(t, fmt.Sprintf("seed %d", seed), step, whole)
		if whole.Stats().Eqids == 0 {
			t.Errorf("seed %d: no eqids shipped", seed)
		}
	}
}

// TestFanoutParityDeepPlan: the stage runner fans its resolve and
// delivery rounds out; with 1 worker or 4 the deep plan must maintain
// the same V and meter the same messages, bytes, per-pair bytes,
// received bytes and eqids.
func TestFanoutParityDeepPlan(t *testing.T) {
	run := func(workers int) (*Session, []string) {
		rel, scheme, rules, batches := deepFixture(t, 3)
		sys := deepSystem(t, rel, scheme, rules, WithMaxFanout(workers))
		var deltas []string
		for i, batch := range batches {
			d, err := sys.ApplyBatch(context.Background(), batch)
			if err != nil {
				t.Fatalf("%d workers, batch %d: %v", workers, i, err)
			}
			deltas = append(deltas, d.String())
		}
		return sys, deltas
	}
	seq, seqDeltas := run(1)
	par, parDeltas := run(4)
	if !reflect.DeepEqual(seqDeltas, parDeltas) || !seq.Violations().Equal(par.Violations()) {
		t.Fatal("worker count changed ∆V or V")
	}
	a, b := seq.Stats(), par.Stats()
	if a.Messages != b.Messages || a.Bytes != b.Bytes || a.Eqids != b.Eqids ||
		!reflect.DeepEqual(a.PerPair, b.PerPair) || !reflect.DeepEqual(a.RecvBytes, b.RecvBytes) {
		t.Errorf("worker count changed the meters:\n1 worker:  %+v\n4 workers: %+v", a, b)
	}
	if a.Eqids == 0 {
		t.Error("no eqids shipped")
	}
}
