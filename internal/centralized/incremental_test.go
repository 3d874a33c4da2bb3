package centralized

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cfd"
	"repro/internal/relation"
)

// Property: the centralized incremental detector tracks the from-scratch
// detector exactly under random update sequences, including modifications
// (delete + re-insert) and in-batch cancellations.
func TestIncrementalMatchesDetect(t *testing.T) {
	schema := relation.MustSchema("R", "A", "B", "C", "D")
	dom := func(a string, i int) string { return fmt.Sprintf("%s%d", a, i) }
	rules := testRules(dom)

	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := relation.New(schema)
		randTuple := func(id relation.TupleID) relation.Tuple {
			vals := make([]string, 4)
			for j, a := range schema.Attrs {
				vals[j] = dom(a, rng.Intn(3))
			}
			return relation.Tuple{ID: id, Values: vals}
		}
		for i := 1; i <= 15; i++ {
			rel.MustInsert(randTuple(relation.TupleID(i)))
		}

		inc, err := NewIncremental(rel, rules)
		if err != nil {
			return false
		}
		if !inc.Violations().Equal(Detect(rel, rules)) {
			return false
		}

		live := rel.IDs()
		inBatch := make(map[relation.TupleID]relation.Tuple)
		next := relation.TupleID(16)
		var updates relation.UpdateList
		for i := 0; i < int(steps%30); i++ {
			if rng.Intn(5) < 3 || len(live) == 0 {
				tp := randTuple(next)
				next++
				inBatch[tp.ID] = tp
				live = append(live, tp.ID)
				updates = append(updates, relation.Update{Kind: relation.Insert, Tuple: tp})
			} else {
				k := rng.Intn(len(live))
				id := live[k]
				live = append(live[:k], live[k+1:]...)
				tp, ok := rel.Get(id)
				if !ok {
					tp = inBatch[id]
				}
				updates = append(updates, relation.Update{Kind: relation.Delete, Tuple: tp})
			}
		}

		delta, err := inc.Apply(updates)
		if err != nil {
			return false
		}
		updated := rel.Clone()
		if err := updates.Normalize().Apply(updated); err != nil {
			return false
		}
		want := Detect(updated, rules)
		if !inc.Violations().Equal(want) {
			return false
		}
		// ∆V is the change from the old V to the new V.
		return delta.String() == cfd.DeltaBetween(Detect(rel, rules), want).String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestIncrementalRejectsBadDeletes(t *testing.T) {
	schema := relation.MustSchema("R", "A", "B", "C", "D")
	rel := relation.New(schema)
	rel.MustInsert(relation.Tuple{ID: 1, Values: []string{"A0", "B0", "C0", "D0"}})
	dom := func(a string, i int) string { return fmt.Sprintf("%s%d", a, i) }
	inc, err := NewIncremental(rel, testRules(dom))
	if err != nil {
		t.Fatal(err)
	}
	_, err = inc.Apply(relation.UpdateList{{Kind: relation.Delete,
		Tuple: relation.Tuple{ID: 99, Values: []string{"A0", "B0", "C0", "D0"}}}})
	if err == nil {
		t.Error("delete of missing tuple succeeded")
	}
}

func TestIncrementalDoesNotMutateInput(t *testing.T) {
	schema := relation.MustSchema("R", "A", "B", "C", "D")
	rel := relation.New(schema)
	rel.MustInsert(relation.Tuple{ID: 1, Values: []string{"A0", "B0", "C0", "D0"}})
	dom := func(a string, i int) string { return fmt.Sprintf("%s%d", a, i) }
	inc, err := NewIncremental(rel, testRules(dom))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Apply(relation.UpdateList{{Kind: relation.Insert,
		Tuple: relation.Tuple{ID: 2, Values: []string{"A0", "B0", "C1", "D0"}}}}); err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Errorf("caller's relation mutated: Len = %d", rel.Len())
	}
	if inc.Relation().Len() != 2 {
		t.Errorf("maintained relation Len = %d, want 2", inc.Relation().Len())
	}
}
