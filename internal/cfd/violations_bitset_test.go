package cfd

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/relation"
)

// TestViolationsSpillBeyond64Rules exercises the inline→multi-word
// migration: marks set before the 65th rule is interned must survive the
// spill, and marks above index 63 must work (the Exp-3 sweep runs 125
// rules, so the spill path is load-bearing, not theoretical).
func TestViolationsSpillBeyond64Rules(t *testing.T) {
	v := NewViolations()
	for i := 0; i < 60; i++ {
		v.Add(relation.TupleID(i%7), fmt.Sprintf("r%03d", i))
	}
	preSpill := v.Clone()
	for i := 60; i < 130; i++ {
		v.Add(relation.TupleID(i%7), fmt.Sprintf("r%03d", i))
	}
	if v.Len() != 7 {
		t.Fatalf("Len = %d, want 7", v.Len())
	}
	if v.Marks() != 130 {
		t.Fatalf("Marks = %d, want 130", v.Marks())
	}
	// Every pre-spill mark survived.
	for i := 0; i < 60; i++ {
		if !v.HasRule(relation.TupleID(i%7), fmt.Sprintf("r%03d", i)) {
			t.Fatalf("mark (t%d, r%03d) lost in spill", i%7, i)
		}
	}
	if eq := v.Equal(preSpill); eq {
		t.Error("spilled set equals its 60-rule prefix")
	}
	// High-index removal drops the tuple when its last mark goes.
	solo := relation.TupleID(100)
	v.Add(solo, "r129")
	v.Remove(solo, "r129")
	if v.Has(solo) {
		t.Error("tuple with only a high-index mark did not leave V")
	}
	// Rules() stays sorted across the spill boundary.
	rules := v.Rules(0)
	for i := 1; i < len(rules); i++ {
		if rules[i-1] >= rules[i] {
			t.Fatalf("Rules not sorted: %q before %q", rules[i-1], rules[i])
		}
	}
}

// TestEqualAcrossInterningOrders: two sets holding identical marks must
// compare equal even when their rule ids were interned in different
// orders (centralized oracle vs distributed engine), including when only
// one of them has spilled.
func TestEqualAcrossInterningOrders(t *testing.T) {
	a, b := NewViolations(), NewViolations()
	a.Add(1, "phi1")
	a.Add(1, "phi2")
	a.Add(5, "phi3")
	b.Add(5, "phi3") // reversed interning order
	b.Add(1, "phi2")
	b.Add(1, "phi1")
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("identical marks, different interning order: Equal = false")
	}
	b.Add(1, "phi3")
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("differing marks compare equal")
	}
	b.Remove(1, "phi3")
	// Spill only b.
	for i := 0; i < 70; i++ {
		r := fmt.Sprintf("spill%02d", i)
		b.Intern(r)
	}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("spilled vs inline sets with identical marks: Equal = false")
	}
	if diff := a.Diff(b); len(diff) != 0 {
		t.Fatalf("Diff of equal sets = %v", diff)
	}
}

// TestSnapshotIsReadOnlyView: a published view sees the source's marks
// at Publish and keeps them while the source moves on.
func TestSnapshotIsReadOnlyView(t *testing.T) {
	v := NewViolations()
	v.Add(1, "phi1")
	v.Add(2, "phi2")
	snap := v.Publish()
	if d := (model{1: {"phi1": true}, 2: {"phi2": true}}).mismatch(snap); d != "" || snap.Len() != 2 || !snap.HasRule(1, "phi1") {
		t.Fatalf("view does not reflect the source: %s", d)
	}
	if got := snap.Rules(1); !reflect.DeepEqual(got, []string{"phi1"}) {
		t.Fatalf("view Rules(1) = %v", got)
	}
	v.Add(3, "phi3")
	v.Remove(1, "phi1")
	if snap.Has(3) || !snap.HasRule(1, "phi1") || snap.Len() != 2 {
		t.Fatal("mutating the source leaked into a published view")
	}
}

// TestTuplesCacheInvalidation: Tuples() follows every change of the
// tuple set, and a mark on a tuple already in V leaves it as it was.
func TestTuplesCacheInvalidation(t *testing.T) {
	v := NewViolations()
	v.Add(5, "r")
	v.Add(1, "r")
	if got := v.Tuples(); !reflect.DeepEqual(got, []relation.TupleID{1, 5}) {
		t.Fatalf("Tuples = %v", got)
	}
	v.Add(5, "r2")
	if got := v.Tuples(); !reflect.DeepEqual(got, []relation.TupleID{1, 5}) {
		t.Fatalf("Tuples after same-tuple mark = %v", got)
	}
	v.Add(3, "r")
	if got := v.Tuples(); !reflect.DeepEqual(got, []relation.TupleID{1, 3, 5}) {
		t.Fatalf("Tuples after new tuple = %v", got)
	}
	v.Remove(1, "r")
	if got := v.Tuples(); !reflect.DeepEqual(got, []relation.TupleID{3, 5}) {
		t.Fatalf("Tuples after removal = %v", got)
	}
}

// TestDeltaSpill diffs across the 64-rule boundary: a delta whose
// marks sit on both sides of it, between two sets of which only one has
// spilled, and between two spilled sets.
func TestDeltaSpill(t *testing.T) {
	old := NewViolations()
	for i := 0; i < 60; i++ {
		old.Add(relation.TupleID(i), fmt.Sprintf("r%03d", i))
	}
	v := old.Clone()
	for i := 60; i < 70; i++ {
		v.Add(relation.TupleID(i), fmt.Sprintf("r%03d", i))
	}
	v.Remove(3, "r003")
	v.Add(0, "r069")
	d := DeltaBetween(old, v)
	if d.AddedMarks() != 11 || d.RemovedMarks() != 1 || !reflect.DeepEqual(d.AddedRules(0), []string{"r069"}) ||
		!reflect.DeepEqual(d.RemovedRules(3), []string{"r003"}) {
		t.Fatalf("spilled delta = %v", d)
	}
	mid := v.Clone()
	v.Remove(0, "r069")
	v.Add(0, "r068")
	if got := DeltaBetween(mid, v).String(); got != "∆V+={t0{r068}} ∆V−={t0{r069}}" {
		t.Fatalf("delta between spilled sets = %s", got)
	}
	if got := DeltaBetween(v, old).String(); got != "∆V+={t3{r003}} ∆V−={t0{r068}, t60{r060}, t61{r061}, t62{r062}, t63{r063}, t64{r064}, t65{r065}, t66{r066}, t67{r067}, t68{r068}, t69{r069}}" {
		t.Fatalf("reverse delta = %s", got)
	}
}
