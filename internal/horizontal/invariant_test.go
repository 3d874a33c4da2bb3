package horizontal

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/centralized"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/workload"
)

// checkClassFlags holds the sites to the invariant the driver's settle
// rule stands on: at every site, all classes of a (rule, X) group share
// one flag, and that flag is set iff the group has at least two distinct
// B codes across all sites. An owner is settled only when its reply shows
// a class the final flag flips, so a skipped settle that was needed
// leaves a class on the wrong flag here.
func checkClassFlags(t *testing.T, step string, sites []*site) {
	t.Helper()
	type key struct {
		rule string
		dx   code
	}
	distinct := make(map[key]map[code]bool)
	for _, s := range sites {
		for _, r := range s.ruleOrder {
			for dx, g := range r.groups {
				k := key{r.ID, dx}
				if distinct[k] == nil {
					distinct[k] = make(map[code]bool)
				}
				for _, c := range g.classes {
					distinct[k][c.db] = true
				}
			}
		}
	}
	for _, s := range sites {
		for _, r := range s.ruleOrder {
			for dx, g := range r.groups {
				want := len(distinct[key{r.ID, dx}]) >= 2
				for _, c := range g.classes {
					if c.inV != want {
						t.Fatalf("%s: site %d, rule %s, group %x: class %x flagged %v, want %v (%d distinct B across sites)",
							step, s.id, r.ID, dx, c.db, c.inV, want, len(distinct[key{r.ID, dx}]))
					}
				}
			}
		}
	}
}

// TestClassFlagInvariant: over a random stream of insertions, deletions
// and same-values twins under new ids, with rules added and removed
// between batches, every site satisfies checkClassFlags after every batch
// and V equals a fresh centralized detection — in process and through
// hosted sites, in waves of 1 and 64, MD5 coding on and off.
func TestClassFlagInvariant(t *testing.T) {
	for _, hosted := range []bool{false, true} {
		for _, wave := range []int{1, 64} {
			for _, disable := range []bool{false, true} {
				t.Run(fmt.Sprintf("hosted=%v/wave=%d/md5=%v", hosted, wave, !disable), func(t *testing.T) {
					classFlagStream(t, hosted, wave, disable)
				})
			}
		}
	}
}

func classFlagStream(t *testing.T, hosted bool, wave int, disable bool) {
	gen := workload.NewSized(workload.TPCH, 13, 900)
	rules := gen.Rules(28)
	rel := gen.Relation(300)
	scheme := partition.HashHorizontal("c_name", 3)
	var sys *System
	var sites []*site
	if hosted {
		var tr *hostedTransport
		sys, tr = hostedSystem(t, rel, scheme, rules[:22], Options{DisableMD5: disable})
		for _, hs := range tr.sites {
			sites = append(sites, hs.st)
		}
	} else {
		var err error
		if sys, err = NewSystem(rel, scheme, rules[:22], Options{DisableMD5: disable}); err != nil {
			t.Fatal(err)
		}
		sites = sys.sites
	}
	mirror := rel.Clone()
	checkClassFlags(t, "seed", sites)
	rounds := 240 / wave
	if rounds < 12 {
		rounds = 12
	}
	nextID := relation.TupleID(1 << 30)
	for round := 0; round < rounds; round++ {
		batch := gen.Updates(mirror, wave, 0.5)
		if round%3 == 2 {
			// Twins: a held tuple out and its values back under a new id.
			batch = batch[:len(batch)-1]
			held := mirror.Tuples()
			tp := held[round%len(held)]
			for slices.ContainsFunc(batch, func(u relation.Update) bool { return u.Tuple.ID == tp.ID }) {
				tp = held[(int(tp.ID)+1)%len(held)]
			}
			nextID++
			batch = append(batch, relation.Update{Kind: relation.Delete, Tuple: tp},
				relation.Update{Kind: relation.Insert, Tuple: relation.Tuple{ID: nextID, Values: tp.Values}})
		}
		if _, err := sys.Apply(batch); err != nil {
			t.Fatal(err)
		}
		if err := batch.Normalize().Apply(mirror); err != nil {
			t.Fatal(err)
		}
		step := fmt.Sprintf("batch %d", round)
		switch round {
		case rounds / 4:
			if _, err := sys.AddRules(rules[22:]); err != nil {
				t.Fatal(err)
			}
			step += " + AddRules"
		case rounds / 2:
			if _, err := sys.RemoveRules([]string{rules[1].ID, rules[24].ID}); err != nil {
				t.Fatal(err)
			}
			step += " + RemoveRules"
		}
		checkClassFlags(t, step, sites)
		if want := centralized.Detect(mirror, sys.Rules()); !sys.Violations().Equal(want) {
			t.Fatalf("%s: V diverged from the centralized oracle", step)
		}
	}
}
