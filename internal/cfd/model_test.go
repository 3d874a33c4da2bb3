package cfd

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/relation"
)

// model is the reference violation set the tries are checked against: a
// plain map from tuple to the names of the rules it violates.
type model map[relation.TupleID]map[string]bool

func (m model) set(id relation.TupleID, rule string, on bool) {
	if on {
		if m[id] == nil {
			m[id] = make(map[string]bool)
		}
		m[id][rule] = true
		return
	}
	delete(m[id], rule)
	if len(m[id]) == 0 {
		delete(m, id)
	}
}

func (m model) clone() model {
	c := make(model, len(m))
	for id, rules := range m {
		for r := range rules {
			c.set(id, r, true)
		}
	}
	return c
}

// ruleTuples returns the tuples violating each rule, ascending.
func (m model) ruleTuples() map[string][]relation.TupleID {
	out := make(map[string][]relation.TupleID)
	for id, rules := range m {
		for r := range rules {
			out[r] = append(out[r], id)
		}
	}
	for _, ids := range out {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	return out
}

// mismatch reports how e answers a read differently from m — |V|, marks,
// membership, any tuple's rules, any rule's postings or count, the
// histogram or the measures — or "" when every read agrees.
func (m model) mismatch(e *EpochView) string {
	marks := 0
	var ids []relation.TupleID
	for id, rules := range m {
		marks += len(rules)
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if e.Len() != len(m) || e.Marks() != marks {
		return fmt.Sprintf("counters: view %d/%d, model %d/%d", e.Len(), e.Marks(), len(m), marks)
	}
	if got := e.Tuples(); fmt.Sprint(got) != fmt.Sprint(ids) {
		return fmt.Sprintf("tuples: view %v, model %v", got, ids)
	}
	for _, id := range ids {
		var want []string
		for r := range m[id] {
			want = append(want, r)
		}
		sort.Strings(want)
		if got := e.Rules(id); !e.Has(id) || strings.Join(got, ",") != strings.Join(want, ",") {
			return fmt.Sprintf("t%d: view has=%v rules %v, model %v", id, e.Has(id), got, want)
		}
		for _, r := range want {
			if !e.HasRule(id, r) {
				return fmt.Sprintf("t%d: view lacks rule %s", id, r)
			}
		}
	}
	post := m.ruleTuples()
	hist := e.Histogram()
	violated := 0
	for i, rc := range hist {
		if i > 0 && hist[i-1].Rule >= rc.Rule {
			return fmt.Sprintf("histogram out of order at %s", rc.Rule)
		}
		want := post[rc.Rule]
		if rc.Count != len(want) || e.CountRule(rc.Rule) != len(want) {
			return fmt.Sprintf("rule %s: histogram %d, count %d, model %d", rc.Rule, rc.Count, e.CountRule(rc.Rule), len(want))
		}
		if got := e.TuplesOfRule(rc.Rule); fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Sprintf("rule %s: postings %v, model %v", rc.Rule, got, want)
		}
		seen := 0
		e.EachTupleOfRule(rc.Rule, func(relation.TupleID) bool { seen++; return true })
		if seen != len(want) {
			return fmt.Sprintf("rule %s: walked %d postings, model %d", rc.Rule, seen, len(want))
		}
		if len(want) > 0 {
			violated++
		}
	}
	if violated != len(post) {
		return fmt.Sprintf("histogram names %d violated rules, model %d", violated, len(post))
	}
	drastic := 0
	if len(m) > 0 {
		drastic = 1
	}
	if got, want := e.Measure(), (Measures{Drastic: drastic, ViolatingTuples: len(m), Marks: marks, RulesViolated: violated}); got != want {
		return fmt.Sprintf("measures %+v, model %+v", got, want)
	}
	return ""
}

// modelSide is one writer of a model run with the reference it must
// match.
type modelSide struct {
	v *Violations
	m model
}

// heldView is a published view with the model it must keep matching.
type heldView struct {
	view *EpochView
	m    model
}

// runModel decodes data into operations on a family of violation sets —
// one at first, more after each Clone — and checks the written set
// against its model after every operation, and every set and every held
// view against theirs after every 16th operation and at the end.
// Each operation is an opcode byte followed by its arguments:
//
//	0–3  Add(id, rule)        id from three bytes, rule from one
//	4–5  Remove(id, rule)
//	6    Intern of 1–16 fresh rules (the pool crosses 64)
//	7    Publish: hold the view and a copy of the model
//	8    Clone the chosen side; both sides go on independently
//	9    ClearRules(two rules)
//	10   diff a held view against the chosen side, or against another
//	     held view, both ways; the deltas must be the models' difference
//
// The first argument of every operation picks the side. Ids draw from 8
// root slots × 48 second-level slots × 3 high parts, so many share trie
// nodes.
func runModel(t *testing.T, data []byte) {
	const maxSides, maxHeld = 4, 8
	pool := make([]string, 160)
	for i := range pool {
		pool[i] = fmt.Sprintf("phi%03d", i)
	}
	next := 0 // next fresh name in pool
	sides := []*modelSide{{v: NewViolations(), m: model{}}}
	var held []heldView
	pos := 0
	arg := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	id := func() relation.TupleID {
		return relation.TupleID(arg()%3)<<36 | relation.TupleID(arg()%48)<<6 | relation.TupleID(arg()%8)
	}
	rule := func(s *modelSide) string {
		b := arg()
		if names := s.v.rs.names; len(names) > 0 && b < 224 {
			return names[b%len(names)]
		}
		return pool[b%len(pool)]
	}
	for step := 0; pos < len(data); step++ {
		op := arg() % 11
		s := sides[arg()%len(sides)]
		var what string
		switch op {
		case 0, 1, 2, 3:
			id, r := id(), rule(s)
			s.v.Add(id, r)
			s.m.set(id, r, true)
			what = fmt.Sprintf("Add(t%d, %s)", id, r)
		case 4, 5:
			id, r := id(), rule(s)
			s.v.Remove(id, r)
			s.m.set(id, r, false)
			what = fmt.Sprintf("Remove(t%d, %s)", id, r)
		case 6:
			k := 1 + arg()%16
			for i := 0; i < k; i++ {
				s.v.Intern(pool[next%len(pool)])
				next++
			}
			what = fmt.Sprintf("Intern %d", k)
		case 7:
			e := s.v.Publish()
			if len(held) == maxHeld {
				held = held[1:]
			}
			held = append(held, heldView{e, s.m.clone()})
			what = fmt.Sprintf("Publish epoch %d", e.Epoch())
		case 8:
			if len(sides) < maxSides {
				sides = append(sides, &modelSide{v: s.v.Clone(), m: s.m.clone()})
			}
			what = "Clone"
		case 9:
			retire := []string{rule(s), rule(s)}
			s.v.ClearRules(retire)
			for _, r := range retire {
				for id := range s.m {
					s.m.set(id, r, false)
				}
			}
			what = fmt.Sprintf("ClearRules(%v)", retire)
		case 10:
			if len(held) == 0 {
				break
			}
			h := held[arg()%len(held)]
			other := heldView{&s.v.EpochView, s.m}
			if k := arg() % (len(held) + 1); k < len(held) {
				other = held[k]
			}
			what = fmt.Sprintf("diff epoch %d against epoch %d", h.view.Epoch(), other.view.Epoch())
			for _, p := range [][2]heldView{{h, other}, {other, h}} {
				if d := deltaMismatch(diffViews(p[0].view, p[1].view), p[0].m, p[1].m); d != "" {
					t.Fatalf("step %d (%s): %s", step, what, d)
				}
			}
		}
		if d := s.m.mismatch(&s.v.EpochView); d != "" {
			t.Fatalf("step %d (%s): the written set diverged from its model: %s", step, what, d)
		}
		if step%16 == 0 || pos >= len(data) {
			for i, o := range sides {
				if d := o.m.mismatch(&o.v.EpochView); d != "" {
					t.Fatalf("step %d (%s): side %d diverged from its model: %s", step, what, i, d)
				}
			}
			for _, h := range held {
				if d := h.m.mismatch(h.view); d != "" {
					t.Fatalf("step %d (%s): held epoch %d changed: %s", step, what, h.view.Epoch(), d)
				}
			}
		}
	}
}

// TestViolationsMatchModel runs the model decoder over seeded random
// operation streams, each long enough to intern past 64 rules, clone,
// publish and retire rules many times over.
func TestViolationsMatchModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 5000)
		rng.Read(data)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runModel(t, data) })
	}
}

// FuzzViolations is TestViolationsMatchModel over arbitrary operation
// streams. Two seeds aim at the diff: one diffs a spilled mark (rule
// index ≥ 64) in and out, the other a leaf the writer pushes a trie level
// down, and then back up into a different key. A third has two clones
// insert into one emptied root, whose leaf array has spare room: each
// must copy it, not append into the array the sealed root still holds.
func FuzzViolations(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 7, 0, 4, 0, 1, 2, 3, 8, 0, 6, 0, 5, 6, 1, 7, 0, 1, 2, 3, 4})
	f.Add([]byte{
		6, 0, 15, 6, 0, 15, 6, 0, 15, 6, 0, 15, 6, 0, 15, // intern 80 rules
		0, 0, 0, 1, 2, 70, // Add(t66, phi070)
		7, 0, // Publish
		0, 0, 0, 1, 2, 75, 4, 0, 0, 1, 2, 70, // Add(t66, phi075), Remove(t66, phi070)
		10, 0, 0, 1, // diff against the writer
		7, 0, 10, 0, 0, 1, // Publish, diff the two held epochs
	})
	f.Add([]byte{
		0, 0, 0, 1, 0, 0, 7, 0, // Add(t64, phi000), Publish
		0, 0, 0, 2, 0, 0, // Add(t128, phi000): t64's leaf goes a level down
		10, 0, 0, 1, 7, 0, // diff against the writer, Publish
		4, 0, 0, 1, 0, 0, 4, 0, 0, 2, 0, 0, // remove both: the sub-trie goes
		0, 0, 0, 3, 0, 0, // Add(t192, phi000): a leaf where the sub-trie was
		10, 0, 1, 2, 10, 0, 0, 1, // diff against the writer, and the two epochs
	})
	f.Add([]byte{
		0, 0, 0, 0, 1, 0, 4, 0, 0, 0, 1, 0, // Add(t1, phi000), Remove(t1, phi000): the root stays, empty
		8, 0, // Clone
		0, 0, 0, 0, 2, 0, // side 0: Add(t2, phi000)
		0, 1, 0, 0, 3, 0, // side 1: Add(t3, phi000)
	})
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(runModel)
}

// deltaMismatch reports how d differs from the change from old to new
// computed on plain maps — its marks, their counts, their order — or ""
// when it is exactly that change.
func deltaMismatch(d *Delta, old, new model) string {
	minus := func(a, b model) model {
		out := model{}
		for id, rules := range a {
			for r := range rules {
				if !b[id][r] {
					out.set(id, r, true)
				}
			}
		}
		return out
	}
	for _, side := range []struct {
		name   string
		want   model
		marks  int
		tuples []relation.TupleID
		rules  func(relation.TupleID) []string
	}{
		{"∆V+", minus(new, old), d.AddedMarks(), d.AddedTuples(), d.AddedRules},
		{"∆V−", minus(old, new), d.RemovedMarks(), d.RemovedTuples(), d.RemovedRules},
	} {
		got := model{}
		for i, id := range side.tuples {
			if i > 0 && side.tuples[i-1] >= id {
				return fmt.Sprintf("%s tuples out of order: %v", side.name, side.tuples)
			}
			rules := side.rules(id)
			if len(rules) == 0 || !sort.StringsAreSorted(rules) {
				return fmt.Sprintf("%s t%d: rules %v", side.name, id, rules)
			}
			for _, r := range rules {
				got.set(id, r, true)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(side.want) {
			return fmt.Sprintf("%s = %v, model %v", side.name, got, side.want)
		}
		n := 0
		for _, rules := range side.want {
			n += len(rules)
		}
		if side.marks != n {
			return fmt.Sprintf("%s counts %d marks, model %d", side.name, side.marks, n)
		}
	}
	if d.Empty() != (d.Size() == 0) {
		return fmt.Sprintf("Empty() = %v with Size() = %d", d.Empty(), d.Size())
	}
	return ""
}

// mark sets or clears (id, idx) on v and on its model together.
func mark(v *Violations, m model, id relation.TupleID, idx RuleIdx, on bool) {
	if on {
		v.AddIdx(id, idx)
	} else {
		v.RemoveIdx(id, idx)
	}
	m.set(id, v.rs.names[idx], on)
}
