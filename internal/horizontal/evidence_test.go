package horizontal

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cfd"
	"repro/internal/relation"
)

// checkIndex fails unless s's class index is as every call must leave it:
// each group has a class, classes strictly ascending by B code, each class
// a member, members strictly ascending, no fresh bit set, and no touch
// table or touch slot left behind.
func checkIndex(t testing.TB, s *site) {
	t.Helper()
	for _, r := range s.ruleOrder {
		for dx, g := range r.groups {
			if len(g.classes) == 0 || g.touch != 0 {
				t.Fatalf("rule %s: group %x has %d classes, touch slot %d", r.ID, dx, len(g.classes), g.touch)
			}
			for k := range g.classes {
				c := &g.classes[k]
				if k > 0 && bytes.Compare(g.classes[k-1].db[:], c.db[:]) >= 0 {
					t.Fatalf("rule %s: group %x: classes not strictly ascending by B code", r.ID, dx)
				}
				if len(c.members) == 0 || c.fresh {
					t.Fatalf("rule %s: class %x/%x has %d members, fresh %v", r.ID, dx, c.db, len(c.members), c.fresh)
				}
				for i := 1; i < len(c.members); i++ {
					if c.members[i-1] >= c.members[i] {
						t.Fatalf("rule %s: class %x/%x: members %v not strictly ascending", r.ID, dx, c.db, c.members)
					}
				}
			}
		}
	}
	if n := len(s.touches) + len(s.events); n > 0 {
		t.Fatalf("a call left %d touch-table entries behind", n)
	}
}

// groupKey names a (rule, X) group of one site.
type groupKey struct {
	rule *siteRule
	dx   code
}

// classSets copies s's class index: per (rule, X code), the B codes of
// its classes with their flags.
func classSets(s *site) map[groupKey]map[code]bool {
	out := make(map[groupKey]map[code]bool)
	for _, r := range s.ruleOrder {
		for dx, g := range r.groups {
			bs := make(map[code]bool, len(g.classes))
			for _, c := range g.classes {
				bs[c.db] = c.inV
			}
			out[groupKey{r, dx}] = bs
		}
	}
	return out
}

// wantEvidence is a touched group's evidence by definition: a comparison
// of its B set before the call with its B set after it.
func wantEvidence(t *testing.T, pre, post map[code]bool) touchedGroup {
	t.Helper()
	var want touchedGroup
	for _, flag := range pre {
		if want.PreKnown && flag != want.PreFlag {
			t.Fatal("fixture: a group's classes disagree on their flag between calls")
		}
		want.PreKnown, want.PreFlag = true, flag
	}
	for db, flag := range post {
		if _, ok := pre[db]; !ok {
			want.NewB = true
		}
		want.AnyIn, want.AnyOut = want.AnyIn || flag, want.AnyOut || !flag
	}
	want.Structural = want.NewB || len(pre) != len(post)
	bs := make([]code, 0, len(post))
	for db := range post {
		bs = append(bs, db)
	}
	slices.SortFunc(bs, func(a, b code) int { return bytes.Compare(a[:], b[:]) })
	for i := 0; i < len(bs) && i < 2; i++ {
		want.PostBs = append(want.PostBs, bs[i][:])
	}
	return want
}

// touchedGroups lists the (rule, X) groups a call over ups touches, in
// first-touch order, with the ids each gains and loses.
func touchedGroups(s *site, ups []batchApplyItem) ([]groupKey, map[groupKey][2][]int64) {
	var keys []groupKey
	ids := make(map[groupKey][2][]int64)
	for _, u := range ups {
		t := relation.Tuple{ID: relation.TupleID(u.ID), Values: u.Values}
		for _, r := range s.ruleOrder {
			if r.ConstRHS || !r.MatchesLHS(t) {
				continue
			}
			dx, _ := s.tupleKeys(r.Compiled, t)
			k := groupKey{r, dx}
			e, seen := ids[k]
			if !seen {
				keys = append(keys, k)
			}
			if u.Op == OpInsert {
				e[0] = append(e[0], u.ID)
			} else {
				e[1] = append(e[1], u.ID)
			}
			ids[k] = e
		}
	}
	return keys, ids
}

// applyChecked runs one h.batchApply on s and holds each touched group's
// reply to the definition: PreKnown, PreFlag, Structural, NewB, AnyIn,
// AnyOut and PostBs as s's class sets before and after the call give them, and the ids the
// group gained and lost in batch order.
func applyChecked(t *testing.T, s *site, ups ...batchApplyItem) []touchedGroup {
	t.Helper()
	keys, ids := touchedGroups(s, ups)
	before := classSets(s)
	resp, err := s.batchApply(batchApplyReq{Updates: ups})
	if err != nil {
		t.Fatal(err)
	}
	after := classSets(s)
	checkIndex(t, s)
	if len(resp.Groups) != len(keys) {
		t.Fatalf("%d touched groups reported, want %d", len(resp.Groups), len(keys))
	}
	for i, got := range resp.Groups {
		k := keys[i]
		want := wantEvidence(t, before[k], after[k])
		want.Rule, want.X, want.Inserted, want.Deleted = k.rule.ID, k.dx[:], ids[k][0], ids[k][1]
		if got.Rule != want.Rule || !bytes.Equal(got.X, want.X) ||
			got.PreKnown != want.PreKnown || got.PreFlag != want.PreFlag ||
			got.Structural != want.Structural || got.NewB != want.NewB ||
			got.AnyIn != want.AnyIn || got.AnyOut != want.AnyOut ||
			!slices.EqualFunc(got.PostBs, want.PostBs, bytes.Equal) ||
			!slices.Equal(got.Inserted, want.Inserted) || !slices.Equal(got.Deleted, want.Deleted) {
			t.Fatalf("touched group %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
	return resp.Groups
}

// evidenceSite is one site over R(A, B, C) with small domains, so that
// one call often empties, refills and creates classes of one group.
func evidenceSite(t *testing.T) *site {
	t.Helper()
	schema := relation.MustSchema("R", "A", "B", "C")
	rules, err := cfd.ParseAll(`
ab: ([A] -> [B], (_, _))
abc: ([A, B] -> [C], (_, _, _))
ca: ([C] -> [A], (c0, _))
k: ([A] -> [C], (a0, c1))
`)
	if err != nil {
		t.Fatal(err)
	}
	return newSite(0, schema, cfd.CompileAll(schema, rules))
}

func insItem(id int64, vals ...string) batchApplyItem {
	return batchApplyItem{Op: OpInsert, ID: id, Values: vals}
}

func delItem(id int64, vals ...string) batchApplyItem {
	return batchApplyItem{Op: OpDelete, ID: id, Values: vals}
}

// TestBatchEvidenceMatchesClassSets: over random batches on one small
// site — insertions, deletions, modifications, and tuples inserted and
// deleted again within one call — every touched group's PreKnown,
// PreFlag, Structural, NewB, AnyIn, AnyOut and PostBs are what comparing
// the site's
// class sets before and after the call gives, the definition the
// end-of-call reading of emptied classes and fresh bits stands in for.
func TestBatchEvidenceMatchesClassSets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := evidenceSite(t)
	vals := make(map[int64][]string) // the fragment
	var live []int64
	next := int64(1)
	tuple := func() []string {
		return []string{fmt.Sprintf("a%d", rng.Intn(3)), fmt.Sprintf("b%d", rng.Intn(3)), fmt.Sprintf("c%d", rng.Intn(2))}
	}
	for round := 0; round < 500; round++ {
		var ups []batchApplyItem
		for n := 1 + rng.Intn(8); n > 0; n-- {
			switch r := rng.Intn(10); {
			case r < 4 || len(live) == 0:
				v := tuple()
				ups = append(ups, insItem(next, v...))
				if r == 0 { // gone again within the call
					ups = append(ups, delItem(next, v...))
				} else {
					vals[next] = v
					live = append(live, next)
				}
				next++
			default:
				i := rng.Intn(len(live))
				id := live[i]
				ups = append(ups, delItem(id, vals[id]...))
				if r < 7 { // modified: back within the call under new values
					vals[id] = tuple()
					ups = append(ups, insItem(id, vals[id]...))
				} else {
					live = append(live[:i], live[i+1:]...)
					delete(vals, id)
				}
			}
		}
		groups := applyChecked(t, s, ups...)
		// Pin every touched group's flag as the driver's settle does, at
		// random, so that later calls start from either flag.
		items := make([]settleGroupItem, len(groups))
		for i, g := range groups {
			items[i] = settleGroupItem{Rule: g.Rule, X: keyRef{Digest: g.X}, Flag: rng.Intn(2) == 0}
		}
		if _, err := s.settleGroup(settleGroupReq{Items: items}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchEvidenceEdgeCases pins, on rule ab (A → B), the cases the
// end-of-call reading must get right; applyChecked also holds each call
// to the definition.
func TestBatchEvidenceEdgeCases(t *testing.T) {
	s := evidenceSite(t)
	ab := s.rules["ab"]
	key := func(a string) code {
		dx, _ := s.tupleKeys(ab.Compiled, relation.Tuple{Values: []string{a, "", ""}})
		return dx
	}
	groupOf := func(groups []touchedGroup, a string) touchedGroup {
		t.Helper()
		dx := key(a)
		for _, g := range groups {
			if g.Rule == "ab" && bytes.Equal(g.X, dx[:]) {
				return g
			}
		}
		t.Fatalf("group ab/%s not reported", a)
		return touchedGroup{}
	}
	settle := func(a string, flag bool) {
		t.Helper()
		dx := key(a)
		if _, err := s.settleGroup(settleGroupReq{Items: []settleGroupItem{{Rule: "ab", X: keyRef{Digest: dx[:]}, Flag: flag}}}); err != nil {
			t.Fatal(err)
		}
	}
	applyChecked(t, s, insItem(1, "a0", "b0", "c0"), insItem(2, "a0", "b1", "c0"))
	settle("a0", true)

	// A class emptied and refilled with the same B: the class set did not
	// change. The refilled class starts unflagged, as a recreated one
	// would, so a second deletion from it was not in V.
	g := groupOf(applyChecked(t, s, delItem(1, "a0", "b0", "c0"), insItem(3, "a0", "b0", "c0"),
		delItem(3, "a0", "b0", "c0"), insItem(4, "a0", "b0", "c0")), "a0")
	if g.Structural || g.NewB || !g.PreFlag || !slices.Equal(g.DeletedWasInV, []bool{true, false}) {
		t.Errorf("class emptied and refilled: %+v", g)
	}
	settle("a0", true)

	// A class created and emptied within one call never existed.
	if g := groupOf(applyChecked(t, s, insItem(5, "a0", "b2", "c0"), delItem(5, "a0", "b2", "c0")), "a0"); g.Structural || g.NewB {
		t.Errorf("class created and emptied: %+v", g)
	}
	// Nor did a group: it is reported unknown before, empty after, and
	// gone from the index.
	g = groupOf(applyChecked(t, s, insItem(6, "a1", "b0", "c0"), delItem(6, "a1", "b0", "c0")), "a1")
	if g.PreKnown || g.Structural || g.NewB || len(g.PostBs) != 0 {
		t.Errorf("group created and emptied: %+v", g)
	}
	if _, ok := ab.groups[key("a1")]; ok {
		t.Error("a group emptied within the call stayed in the index")
	}

	// A whole group emptied changed structure and leaves the index.
	g = groupOf(applyChecked(t, s, delItem(2, "a0", "b1", "c0"), delItem(4, "a0", "b0", "c0")), "a0")
	if !g.Structural || g.NewB || len(g.PostBs) != 0 {
		t.Errorf("group emptied: %+v", g)
	}
	if _, ok := ab.groups[key("a0")]; ok {
		t.Error("an emptied group stayed in the index")
	}

	// An error mid-call: what ran before it stays applied, and the call
	// still ends as every call does.
	if _, err := s.batchApply(batchApplyReq{Updates: []batchApplyItem{
		insItem(7, "a2", "b0", "c0"), insItem(8, "a2", "b1", "c0"),
		delItem(7, "a2", "b0", "c0"), delItem(99, "a2", "b0", "c0"),
	}}); err == nil {
		t.Fatal("the deletion of an absent tuple was accepted")
	}
	checkIndex(t, s)
	if g := ab.groups[key("a2")]; g == nil || len(g.classes) != 1 {
		t.Errorf("group ab/a2 after the failed call: %+v, want the one class of tuple 8", g)
	}
}
