package horizontal

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/centralized"
	"repro/internal/cfd"
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
// hosted sites, in waves of 1 and 64, MD5 coding on and off. A hosted run
// also drives in-process sites with the same stream, and after every step
// each hosted site must hold the snapshot bytes of its in-process twin:
// an in-process site is a daemon's site, indexing and dropping its rules
// on its own, from the wire.
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
	opts := Options{DisableMD5: disable}
	local, localSites := localSystem(t, rel, scheme, rules[:22], opts)
	systems, siteSets := []*System{local}, [][]*HostedSite{localSites}
	if hosted {
		sys, tr := hostedSystem(t, rel, scheme, rules[:22], opts)
		systems, siteSets = append(systems, sys), append(siteSets, tr.sites)
	}
	mirror := rel.Clone()
	check := func(step string) {
		t.Helper()
		for k, sys := range systems {
			checkClassFlags(t, step, sites(siteSets[k]))
			if want := centralized.Detect(mirror, sys.Rules()); !sys.Violations().Equal(want) {
				t.Fatalf("%s: V diverged from the centralized oracle", step)
			}
		}
		if hosted {
			sameSites(t, step, localSites, siteSets[1], local.Rules())
		}
	}
	each := func(f func(*System) error) {
		t.Helper()
		for _, sys := range systems {
			if err := f(sys); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("seed")
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
		each(func(sys *System) error { _, err := sys.Apply(batch); return err })
		if err := batch.Normalize().Apply(mirror); err != nil {
			t.Fatal(err)
		}
		step := fmt.Sprintf("batch %d", round)
		switch round {
		case rounds / 4:
			each(func(sys *System) error { _, err := sys.AddRules(rules[22:]); return err })
			step += " + AddRules"
		case rounds / 2:
			each(func(sys *System) error { _, err := sys.RemoveRules([]string{rules[1].ID, rules[24].ID}); return err })
			step += " + RemoveRules"
		}
		check(step)
	}
}

func sites(hs []*HostedSite) []*site {
	out := make([]*site, len(hs))
	for i, h := range hs {
		out[i] = h.st
	}
	return out
}

// sameSites holds hosted sites to the in-process sites fed the same
// stream: equal snapshot bytes, and each holding the driver's rules in
// the driver's order.
func sameSites(t *testing.T, step string, local, hosted []*HostedSite, rules []cfd.CFD) {
	t.Helper()
	for i, s := range local {
		a, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := hosted[i].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: site %d snapshots differ in process and hosted", step, i)
		}
		ids := make([]string, len(s.st.ruleOrder))
		for k, r := range s.st.ruleOrder {
			ids[k] = r.ID
		}
		want := make([]string, len(rules))
		for k := range rules {
			want[k] = rules[k].ID
		}
		if !slices.Equal(ids, want) {
			t.Fatalf("%s: site %d holds rules %v, the driver %v", step, i, ids, want)
		}
	}
}
