package cfd

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// churn flips one random mark on v and its model.
func churn(rng *rand.Rand, v *Violations, m model, rules []string) {
	id := relation.TupleID(rng.Intn(200))
	r := rules[rng.Intn(len(rules))]
	on := rng.Intn(3) != 0
	if on {
		v.Add(id, r)
	} else {
		v.Remove(id, r)
	}
	m.set(id, r, on)
}

// TestPostingsMatchScan churns random marks through a Violations and
// asserts, after every few operations, that the published epoch's
// posting index answers exactly what the model answers — counts,
// per-rule tuple sets, histogram and measures. The churn publishes
// often, then runs thousands of flips in one unpublished build, then
// clones mid-history and churns both sides, whose postings must stay
// apart.
func TestPostingsMatchScan(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		v, m := NewViolations(), model{}
		nRules := 3 + rng.Intn(70) // crosses the 64-rule spill boundary
		rules := make([]string, nRules)
		for i := range rules {
			rules[i] = "phi" + string(rune('A'+i%26)) + string(rune('0'+i/26))
			v.Intern(rules[i])
		}
		check := func(e *EpochView, m model) {
			t.Helper()
			if d := m.mismatch(e); d != "" {
				t.Fatalf("seed %d: %s", seed, d)
			}
		}
		for op := 0; op < 2000; op++ {
			churn(rng, v, m, rules)
			if op%97 == 0 {
				check(v.Publish(), m)
			}
		}
		check(v.Publish(), m)

		for op := 0; op < 5000; op++ {
			churn(rng, v, m, rules)
		}
		check(v.Publish(), m)
		c, cm := v.Clone(), m.clone()
		for op := 0; op < 500; op++ {
			churn(rng, v, m, rules)
			churn(rng, c, cm, rules)
		}
		check(v.Publish(), m)
		check(c.Publish(), cm)
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

// TestClearRules pins the RemoveRules helper: it removes exactly the
// retired rules' marks (spilled indexes included), read off their
// postings, and ignores rules v never interned.
func TestClearRules(t *testing.T) {
	v := NewViolations()
	var rules []string
	for i := 0; i < 70; i++ {
		rules = append(rules, "phi"+string(rune('A'+i%26))+string(rune('0'+i/26)))
		v.Intern(rules[i])
	}
	rng := rand.New(rand.NewSource(1))
	m := model{}
	for op := 0; op < 3000; op++ {
		churn(rng, v, m, rules)
	}
	retire := []string{rules[3], rules[68], "unknown"}
	before := v.Clone()
	v.ClearRules(retire)
	want := 0
	post := m.ruleTuples()
	for _, r := range retire {
		want += len(post[r])
	}
	if d := DeltaBetween(before, v); d.AddedMarks() != 0 || d.RemovedMarks() != want || want == 0 {
		t.Fatalf("delta +%d/−%d, want +0/−%d", d.AddedMarks(), d.RemovedMarks(), want)
	}
	for id := range m {
		m.set(id, retire[0], false)
		m.set(id, retire[1], false)
	}
	if diff := m.mismatch(v.Publish()); diff != "" {
		t.Fatalf("after retiring: %s", diff)
	}
}
