package cfd

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

func TestParseSingleRule(t *testing.T) {
	rules, err := Parse("phi1: ([CC, zip] -> [street], (44, _, _))", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 {
		t.Fatalf("got %d rules", len(rules))
	}
	r := rules[0]
	if r.ID != "phi1" || !reflect.DeepEqual(r.LHS, []string{"CC", "zip"}) || r.RHS != "street" {
		t.Errorf("parsed %+v", r)
	}
	if !reflect.DeepEqual(r.LHSPattern, []string{"44", "_"}) || r.RHSPattern != "_" {
		t.Errorf("patterns %v %q", r.LHSPattern, r.RHSPattern)
	}
	if r.IsConstant() {
		t.Error("variable CFD classified as constant")
	}
}

func TestParseConstantAndTableau(t *testing.T) {
	rules, err := Parse("c: ([CC, AC] -> [city], (44, 131, EDI); (01, 908, MH))", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("tableau split into %d rules", len(rules))
	}
	if rules[0].ID != "c#1" || rules[1].ID != "c#2" {
		t.Errorf("tableau ids %s, %s", rules[0].ID, rules[1].ID)
	}
	if !rules[0].IsConstant() || rules[0].RHSPattern != "EDI" {
		t.Errorf("row 1: %+v", rules[0])
	}
}

func TestParseMultiRHS(t *testing.T) {
	rules, err := Parse("fd: ([zip] -> [city, street], (_, _, _))", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("multi-RHS split into %d rules", len(rules))
	}
	if rules[0].ID != "fd/city" || rules[1].ID != "fd/street" {
		t.Errorf("ids %s, %s", rules[0].ID, rules[1].ID)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"no arrow here",
		"x: ([A] -> [B])",            // missing pattern
		"x: ([A] -> [B], (1, 2, 3))", // arity mismatch
		"x: ([] -> [B], (_))",        // empty LHS
		"x: ([A] -> [B], 1, 2)",      // unparenthesized pattern
		"x: [A] -> [B], (_, _)",      // missing outer parens
	} {
		if _, err := Parse(bad, 1); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestParseAllAndRoundTrip(t *testing.T) {
	text := `
# comment
phi1: ([CC, zip] -> [street], (44, _, _))
phi2: ([CC, AC] -> [city], (44, 131, EDI))
`
	rules, err := ParseAll(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules", len(rules))
	}
	// String() output parses back to the same rule.
	for _, r := range rules {
		back, err := Parse(r.String(), 9)
		if err != nil {
			t.Fatalf("reparse %q: %v", r.String(), err)
		}
		if !reflect.DeepEqual(back[0], r) {
			t.Errorf("round trip: %+v vs %+v", back[0], r)
		}
	}
}

func TestValidate(t *testing.T) {
	s := relation.MustSchema("R", "A", "B", "C")
	good := CFD{ID: "r", LHS: []string{"A"}, RHS: "B", LHSPattern: []string{"_"}, RHSPattern: "_"}
	if err := good.Validate(s); err != nil {
		t.Error(err)
	}
	for _, bad := range []CFD{
		{ID: "", LHS: []string{"A"}, RHS: "B", LHSPattern: []string{"_"}, RHSPattern: "_"},
		{ID: "r", LHS: nil, RHS: "B", RHSPattern: "_"},
		{ID: "r", LHS: []string{"Z"}, RHS: "B", LHSPattern: []string{"_"}, RHSPattern: "_"},
		{ID: "r", LHS: []string{"A", "A"}, RHS: "B", LHSPattern: []string{"_", "_"}, RHSPattern: "_"},
		{ID: "r", LHS: []string{"A"}, RHS: "A", LHSPattern: []string{"_"}, RHSPattern: "_"},
		{ID: "r", LHS: []string{"A"}, RHS: "Z", LHSPattern: []string{"_"}, RHSPattern: "_"},
		{ID: "r", LHS: []string{"A"}, RHS: "B", LHSPattern: []string{"_", "_"}, RHSPattern: "_"},
	} {
		if err := bad.Validate(s); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
	if err := ValidateAll(s, []CFD{good, good}); err == nil {
		t.Error("duplicate rule ids accepted")
	}
}

func TestMatchSemantics(t *testing.T) {
	s := relation.MustSchema("R", "A", "B", "C")
	rule := CFD{ID: "r", LHS: []string{"A", "B"}, RHS: "C",
		LHSPattern: []string{"1", "_"}, RHSPattern: "_"}
	t1 := relation.Tuple{ID: 1, Values: []string{"1", "x", "p"}}
	t2 := relation.Tuple{ID: 2, Values: []string{"1", "x", "q"}}
	t3 := relation.Tuple{ID: 3, Values: []string{"2", "x", "p"}}
	t4 := relation.Tuple{ID: 4, Values: []string{"1", "y", "q"}}

	if !rule.MatchesLHS(s, t1) || rule.MatchesLHS(s, t3) {
		t.Error("MatchesLHS wrong on pattern constant")
	}
	if !rule.PairViolation(s, t1, t2) {
		t.Error("(t1,t2) should violate")
	}
	if rule.PairViolation(s, t1, t4) {
		t.Error("(t1,t4) differ on X, no violation")
	}
	if rule.PairViolation(s, t1, t3) {
		t.Error("(t1,t3): t3 fails the pattern")
	}

	constRule := CFD{ID: "c", LHS: []string{"A"}, RHS: "C",
		LHSPattern: []string{"1"}, RHSPattern: "p"}
	if !constRule.SingleViolation(s, t2) {
		t.Error("t2 violates the constant rule")
	}
	if constRule.SingleViolation(s, t1) {
		t.Error("t1 satisfies the constant rule")
	}
	if constRule.PairViolation(s, t1, t2) {
		t.Error("constant rules have single-tuple violations only (paper Fig. 1)")
	}
}

// Property: v ≍ p is reflexive on constants and always true for '_'.
func TestMatchValueProperty(t *testing.T) {
	f := func(v uint16) bool {
		s := fmt.Sprint(v)
		return MatchValue(s, Wildcard) && MatchValue(s, s) && !MatchValue(s, s+"x")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: PairViolation is symmetric.
func TestPairViolationSymmetry(t *testing.T) {
	s := relation.MustSchema("R", "A", "B")
	rule := CFD{ID: "r", LHS: []string{"A"}, RHS: "B", LHSPattern: []string{"_"}, RHSPattern: "_"}
	f := func(a1, b1, a2, b2 uint8) bool {
		t1 := relation.Tuple{ID: 1, Values: []string{fmt.Sprint(a1 % 3), fmt.Sprint(b1 % 3)}}
		t2 := relation.Tuple{ID: 2, Values: []string{fmt.Sprint(a2 % 3), fmt.Sprint(b2 % 3)}}
		return rule.PairViolation(s, t1, t2) == rule.PairViolation(s, t2, t1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestViolationsSetOps(t *testing.T) {
	v := NewViolations()
	v.Add(1, "r1")
	v.Add(1, "r2")
	v.Add(2, "r1")
	if !v.Has(1) || !v.HasRule(1, "r2") || v.HasRule(2, "r2") {
		t.Error("membership wrong")
	}
	if v.Len() != 2 || v.Marks() != 3 {
		t.Errorf("Len=%d Marks=%d", v.Len(), v.Marks())
	}
	if !reflect.DeepEqual(v.Rules(1), []string{"r1", "r2"}) {
		t.Errorf("Rules(1) = %v", v.Rules(1))
	}
	v.Remove(1, "r1")
	v.Remove(1, "r2")
	if v.Has(1) {
		t.Error("tuple 1 should be clean after removing both marks")
	}
	c := v.Clone()
	c.Add(5, "r9")
	if v.Has(5) {
		t.Error("Clone shares state")
	}
	diff := c.Diff(v)
	if !reflect.DeepEqual(diff[5], []string{"r9"}) {
		t.Errorf("Diff = %v", diff)
	}
}

// Property: for any sequence of add/remove mark operations, the delta
// between the original and the final set replays that history: taking
// ∆V− off the original and adding ∆V+ gives the final set, and ∆V is
// exactly the plain-map difference of the two.
func TestDeltaReplaysHistory(t *testing.T) {
	rules := []string{"r1", "r2", "r3"}
	f := func(ops []uint16) bool {
		base, m := NewViolations(), model{}
		base.Add(1, "r1")
		base.Add(2, "r2")
		m.set(1, "r1", true)
		m.set(2, "r2", true)
		final, fm := base.Clone(), m.clone()
		for _, op := range ops {
			id := relation.TupleID(op % 5)
			rule := rules[int(op/5)%len(rules)]
			if op%2 == 0 {
				final.Add(id, rule)
			} else {
				final.Remove(id, rule)
			}
			fm.set(id, rule, op%2 == 0)
		}
		d := DeltaBetween(base, final)
		replay := m.clone()
		for _, id := range d.RemovedTuples() {
			for _, r := range d.RemovedRules(id) {
				replay.set(id, r, false)
			}
		}
		for _, id := range d.AddedTuples() {
			for _, r := range d.AddedRules(id) {
				replay.set(id, r, true)
			}
		}
		return fmt.Sprint(replay) == fmt.Sprint(fm) && deltaMismatch(d, m, fm) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDeltaLastOperationWins: marks are idempotent set writes, so the
// last operation on a (tuple, rule) pair decides V, and ∆V holds only
// what that changed against the set the round started from.
func TestDeltaLastOperationWins(t *testing.T) {
	v := NewViolations()
	v.Add(2, "r")
	before := v.Clone()
	v.Add(1, "r")
	v.Remove(1, "r") // add then remove a fresh mark: no change
	v.Remove(2, "r")
	v.Add(2, "r") // remove then add a present mark: no change
	v.Remove(3, "r")
	v.Add(3, "r") // remove then add a fresh mark: an addition
	d := DeltaBetween(before, v)
	if d.String() != "∆V+={t3{r}} ∆V−={}" {
		t.Errorf("delta = %v, want only t3 added", d)
	}
	v.Add(2, "r2")
	v.Remove(2, "r") // the present mark goes, a fresh one comes
	if got := DeltaBetween(before, v).String(); got != "∆V+={t2{r2}, t3{r}} ∆V−={t2{r}}" {
		t.Errorf("delta = %s", got)
	}
}

// TestRollbackRestoresLastPublish: Rollback drops every change since the
// last Publish, interned rules included, and the writer goes on from
// there; before the first Publish it changes nothing.
func TestRollbackRestoresLastPublish(t *testing.T) {
	v := NewViolations()
	v.Add(1, "r1")
	v.Rollback()
	if !v.HasRule(1, "r1") {
		t.Fatal("Rollback before any Publish dropped marks")
	}
	e := v.Publish()
	want := v.Clone()
	v.Add(2, "r1")
	v.Add(1, "r2")
	v.Remove(1, "r1")
	v.Rollback()
	if !v.Equal(want) || v.Publish() != e {
		t.Fatalf("after Rollback V = %v, want %v at epoch %d", v, want, e.Epoch())
	}
	if _, ok := v.LookupRule("r2"); ok {
		t.Fatal("a rule interned after the Publish survived Rollback")
	}
	v.Add(3, "r3")
	if e.Has(3) || !v.HasRule(3, "r3") || v.Publish().Epoch() != e.Epoch()+1 {
		t.Fatal("the writer did not go on from the restored epoch")
	}
}
