package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cfd"
	"repro/internal/partition"
	"repro/internal/relation"
)

// The workload plans the suites above run on have cross-site depth 1.
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

func deepSystem(t *testing.T, seed int64) (Detector, []relation.UpdateList) {
	t.Helper()
	rel, scheme, rules, batches := deepFixture(t, seed)
	sys, err := NewVertical(rel, scheme, rules, VerticalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := slices.Max(sys.Plan().Stages()); d < 2 {
		t.Fatalf("fixture plan has depth %d, want >= 2:\n%s", d, sys.Plan().Describe())
	}
	return sys, batches
}

// TestUnitCoalescedParityDeepPlan is TestUnitCoalescedParity on a plan
// of depth 2, where the stage runner needs three resolve rounds and
// eqids produced in one stage are consumed in the next.
func TestUnitCoalescedParityDeepPlan(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		unitSys, batches := deepSystem(t, seed)
		coalSys, _ := deepSystem(t, seed)
		unitSys.SetUnitMode(true)
		for i, batch := range batches {
			ud, err := unitSys.ApplyBatch(batch)
			if err != nil {
				t.Fatalf("seed %d unit batch %d: %v", seed, i, err)
			}
			cd, err := coalSys.ApplyBatch(batch)
			if err != nil {
				t.Fatalf("seed %d coalesced batch %d: %v", seed, i, err)
			}
			if ud.String() != cd.String() {
				t.Fatalf("seed %d batch %d: ∆V diverged\nunit:      %v\ncoalesced: %v", seed, i, ud, cd)
			}
			if !unitSys.Violations().Equal(coalSys.Violations()) {
				t.Fatalf("seed %d batch %d: violation sets diverged", seed, i)
			}
		}
		uSt, cSt := unitSys.Stats(), coalSys.Stats()
		if uSt.Eqids != cSt.Eqids || uSt.Eqids == 0 {
			t.Errorf("seed %d: eqids unit %d, coalesced %d; want equal and non-zero", seed, uSt.Eqids, cSt.Eqids)
		}
		if cSt.Messages >= uSt.Messages {
			t.Errorf("seed %d: coalesced mode sent %d messages, unit mode %d; want strictly fewer", seed, cSt.Messages, uSt.Messages)
		}
	}
}

// TestFanoutParityDeepPlan: the stage runner fans its resolve and
// delivery rounds out; with 1 worker or 4 the deep plan must maintain
// the same V and meter the same messages, bytes, per-pair bytes,
// received bytes and eqids.
func TestFanoutParityDeepPlan(t *testing.T) {
	run := func(workers int) (Detector, []string) {
		sys, batches := deepSystem(t, 3)
		sys.Cluster().SetMaxFanout(workers)
		var deltas []string
		for i, batch := range batches {
			d, err := sys.ApplyBatch(batch)
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
