package centralized

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cfd"
	"repro/internal/relation"
)

func testRules(dom func(a string, i int) string) []cfd.CFD {
	return []cfd.CFD{
		{ID: "v1", LHS: []string{"A", "B"}, RHS: "C", LHSPattern: []string{"_", "_"}, RHSPattern: "_"},
		{ID: "v2", LHS: []string{"A"}, RHS: "D", LHSPattern: []string{dom("A", 0)}, RHSPattern: "_"},
		{ID: "c1", LHS: []string{"B"}, RHS: "D", LHSPattern: []string{dom("B", 1)}, RHSPattern: dom("D", 0)},
	}
}

// Property: the hash-grouping detector equals the O(n²) literal-definition
// scan on random relations.
func TestDetectMatchesBruteForce(t *testing.T) {
	schema := relation.MustSchema("R", "A", "B", "C", "D")
	dom := func(a string, i int) string { return fmt.Sprintf("%s%d", a, i) }
	rules := testRules(dom)

	f := func(seed int64, rows uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := relation.New(schema)
		for i := 1; i <= int(rows%50)+1; i++ {
			vals := make([]string, 4)
			for j, a := range schema.Attrs {
				vals[j] = dom(a, rng.Intn(3))
			}
			rel.MustInsert(relation.Tuple{ID: relation.TupleID(i), Values: vals})
		}
		return Detect(rel, rules).Equal(BruteForce(rel, rules))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestDetectDelta(t *testing.T) {
	schema := relation.MustSchema("R", "A", "B", "C", "D")
	dom := func(a string, i int) string { return fmt.Sprintf("%s%d", a, i) }
	rules := testRules(dom)

	rel := relation.New(schema)
	rel.MustInsert(relation.Tuple{ID: 1, Values: []string{"A0", "B0", "C0", "D0"}})
	rel.MustInsert(relation.Tuple{ID: 2, Values: []string{"A0", "B0", "C1", "D0"}})
	old := Detect(rel, rules)
	if !old.HasRule(1, "v1") || !old.HasRule(2, "v1") {
		t.Fatalf("v1 group should violate: %v", old)
	}

	updated := rel.Clone()
	if _, err := updated.Delete(2); err != nil {
		t.Fatal(err)
	}
	delta := DetectDelta(updated, rules, old)
	if delta.AddedMarks() != 0 {
		t.Errorf("unexpected additions: %v", delta)
	}
	if delta.String() != "∆V+={} ∆V−={t1{v1}, t2{v1}}" {
		t.Errorf("∆V = %v, want both v1 marks removed", delta)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	schema := relation.MustSchema("R", "A", "B", "C", "D")
	dom := func(a string, i int) string { return fmt.Sprintf("%s%d", a, i) }
	rules := testRules(dom)

	empty := relation.New(schema)
	if v := Detect(empty, rules); v.Len() != 0 {
		t.Errorf("empty relation has violations: %v", v)
	}
	one := relation.New(schema)
	one.MustInsert(relation.Tuple{ID: 1, Values: []string{"A0", "B1", "D1", "D1"}})
	v := Detect(one, rules)
	// Variable rules need a pair; the constant rule c1 can fire alone.
	if v.HasRule(1, "v1") || v.HasRule(1, "v2") {
		t.Errorf("variable CFD violated by a single tuple: %v", v)
	}
	if !v.HasRule(1, "c1") {
		t.Errorf("constant CFD not caught: %v", v)
	}
}
