package cfd

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// churn flips one random mark.
func churn(rng *rand.Rand, v *Violations, rules []string) {
	id := relation.TupleID(rng.Intn(200))
	r := rules[rng.Intn(len(rules))]
	if rng.Intn(3) == 0 {
		v.Remove(id, r)
	} else {
		v.Add(id, r)
	}
}

// TestPostingsMatchScan churns random marks through a Violations and
// asserts, after every few operations, that the published epoch's
// posting index answers exactly what a linear scan of the live bitsets
// answers — counts, per-rule tuple sets, histogram and measures. Both
// publish paths are covered: the incremental replay of the pending log,
// and the rebuild after the log overflows, whose postings and counts
// come out of one walk of the marks.
func TestPostingsMatchScan(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		v := NewViolations()
		nRules := 3 + rng.Intn(70) // crosses the 64-rule spill boundary
		rules := make([]string, nRules)
		for i := range rules {
			rules[i] = "phi" + string(rune('A'+i%26)) + string(rune('0'+i/26))
			v.Intern(rules[i])
		}
		v.Publish() // arm epoch tracking
		for op := 0; op < 2000; op++ {
			churn(rng, v, rules)
			if op%97 == 0 {
				checkPostings(t, v.Publish(), v, rules)
			}
		}
		checkPostings(t, v.Publish(), v, rules)

		for !v.track.overflow {
			churn(rng, v, rules)
		}
		checkPostings(t, v.Publish(), v, rules)
		for op := 0; op < 50; op++ {
			churn(rng, v, rules)
		}
		checkPostings(t, v.Publish(), v, rules)
	}
}

func checkPostings(t *testing.T, e *EpochView, v *Violations, rules []string) {
	t.Helper()
	totalMarks := 0
	for _, r := range rules {
		idx, ok := v.rs.lookup(r)
		if !ok {
			t.Fatalf("rule %s not interned", r)
		}
		// Linear scan over the bitsets.
		scan := make(map[relation.TupleID]bool)
		v.ms.eachTuple(func(id relation.TupleID) {
			if v.ms.has(id, idx) {
				scan[id] = true
			}
		})
		if got := e.CountRule(r); got != len(scan) {
			t.Fatalf("CountRule(%s) = %d, scan says %d", r, got, len(scan))
		}
		for _, id := range e.TuplesOfRule(r) {
			if !scan[id] {
				t.Fatalf("TuplesOfRule(%s) includes %d, scan does not", r, id)
			}
		}
		seen := 0
		e.EachTupleOfRule(r, func(id relation.TupleID) bool {
			if !scan[id] {
				t.Fatalf("EachTupleOfRule(%s) visited %d, scan does not have it", r, id)
			}
			seen++
			return true
		})
		if seen != len(scan) {
			t.Fatalf("EachTupleOfRule(%s) visited %d tuples, scan says %d", r, seen, len(scan))
		}
		totalMarks += len(scan)
	}
	if got := e.Measure(); got.Marks != v.Marks() || got.Marks != totalMarks ||
		got.ViolatingTuples != v.Len() || (got.Drastic == 1) != (v.Len() > 0) {
		t.Fatalf("Measure() = %+v inconsistent with Marks=%d Len=%d scanned=%d",
			got, v.Marks(), v.Len(), totalMarks)
	}
	hist := e.Histogram()
	histSum := 0
	for _, rc := range hist {
		if rc.Count != e.CountRule(rc.Rule) {
			t.Fatalf("Histogram count for %s = %d, CountRule = %d", rc.Rule, rc.Count, e.CountRule(rc.Rule))
		}
		histSum += rc.Count
	}
	if histSum != totalMarks {
		t.Fatalf("Histogram sums to %d marks, scan says %d", histSum, totalMarks)
	}
}

// TestPostingsCloneSnapshot pins that clones carry independent postings
// and published views keep theirs while the live set moves on.
func TestPostingsCloneSnapshot(t *testing.T) {
	v := NewViolations()
	v.Add(1, "phi1")
	v.Add(2, "phi1")
	v.Add(2, "phi2")

	c := v.Clone()
	v.Remove(2, "phi1")
	if got := c.Publish().CountRule("phi1"); got != 2 {
		t.Fatalf("clone postings mutated with original: CountRule(phi1) = %d", got)
	}
	if got := v.Publish().CountRule("phi1"); got != 1 {
		t.Fatalf("original CountRule(phi1) = %d, want 1", got)
	}

	s := v.Publish()
	v.Remove(2, "phi2")
	if s.CountRule("phi2") != 1 || len(s.TuplesOfRule("phi2")) != 1 {
		t.Fatalf("published postings wrong: %d", s.CountRule("phi2"))
	}
	if got := v.Publish().CountRule("phi2"); got != 0 {
		t.Fatalf("live CountRule(phi2) = %d after removal, want 0", got)
	}
}

// TestRetiredDelta pins the RemoveRules helper: the delta removes
// exactly the retired rules' marks (spilled indexes included), leaves v
// untouched until applied, and ignores rules v never interned.
func TestRetiredDelta(t *testing.T) {
	v := NewViolations()
	var rules []string
	for i := 0; i < 70; i++ {
		rules = append(rules, "phi"+string(rune('A'+i%26))+string(rune('0'+i/26)))
		v.Intern(rules[i])
	}
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < 3000; op++ {
		churn(rng, v, rules)
	}
	retire := []string{rules[3], rules[68], "unknown"}
	before := v.Clone()
	d := v.RetiredDelta(retire)
	if !v.Equal(before) {
		t.Fatal("RetiredDelta changed V")
	}
	want := 0
	for _, r := range retire[:2] {
		idx, _ := v.rs.lookup(r)
		v.ms.eachTuple(func(id relation.TupleID) {
			if v.ms.has(id, idx) {
				want++
			}
		})
	}
	if d.AddedMarks() != 0 || d.RemovedMarks() != want || want == 0 {
		t.Fatalf("delta +%d/−%d, want +0/−%d", d.AddedMarks(), d.RemovedMarks(), want)
	}
	d.Apply(v)
	e := v.Publish()
	for _, r := range rules {
		got, keep := e.CountRule(r), before.Publish().CountRule(r)
		if r == retire[0] || r == retire[1] {
			keep = 0
		}
		if got != keep {
			t.Fatalf("after retiring, CountRule(%s) = %d, want %d", r, got, keep)
		}
	}
}
