package centralized

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/storage"
)

// testStorage opens the three stores of a stored maintainer in a temp
// dir under a deliberately tiny shared budget, so every test churns the
// page caches.
func testStorage(t testing.TB, budget int64) Storage {
	t.Helper()
	dir := t.TempDir()
	open := func(name string, opt storage.DiskOptions) storage.Store {
		st, err := storage.OpenDisk(filepath.Join(dir, name), opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	return Storage{
		Tuples: open("tuples.dat", storage.DiskOptions{
			PageFor: storage.Uint64Pager(relation.TupleKeyShift), CacheBudget: budget, Monotone: true, Kind: 'T'}),
		Groups: open("groups.dat", storage.DiskOptions{
			PageFor: storage.FNVPager(GroupPagerBits), CacheBudget: budget, Kind: 'G'}),
		Postings: open("post.dat", storage.DiskOptions{
			PageFor: cfd.PostPager, CacheBudget: budget, Monotone: true, Kind: 'P'}),
	}
}

// TestStoredMatchesIncremental drives a stored maintainer and the
// in-memory maintainer through identical random batches — plus rule
// additions and removals — under a tiny page-cache budget, asserting V,
// ∆V and the maintained relation agree after every round. This is the
// engine-level eviction-correctness oracle: with budgets this small,
// every batch faults and evicts pages in all three stores.
func TestStoredMatchesIncremental(t *testing.T) {
	schema := relation.MustSchema("R", "A", "B", "C", "D")
	dom := func(a string, i int) string { return fmt.Sprintf("%s%d", a, i) }
	rules := testRules(dom)

	seeds := int64(6)
	if !testing.Short() {
		seeds = 20
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			randTuple := func(id relation.TupleID) relation.Tuple {
				vals := make([]string, 4)
				for j, a := range schema.Attrs {
					vals[j] = dom(a, rng.Intn(3))
				}
				return relation.Tuple{ID: id, Values: vals}
			}
			rel := relation.New(schema)
			for i := 1; i <= 40; i++ {
				rel.MustInsert(randTuple(relation.TupleID(i)))
			}

			stored, err := NewIncrementalStored(rel, rules, testStorage(t, 2<<10))
			if err != nil {
				t.Fatal(err)
			}
			mem, err := NewIncremental(rel, rules)
			if err != nil {
				t.Fatal(err)
			}
			if !stored.Violations().Equal(mem.Violations()) {
				t.Fatal("seeding diverged")
			}

			next := relation.TupleID(41)
			extraRule := false
			for round := 0; round < 12; round++ {
				var updates relation.UpdateList
				live := mem.Relation().IDs()
				inBatch := make(map[relation.TupleID]relation.Tuple)
				for i := 0; i < 10+rng.Intn(20); i++ {
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
						tp, ok := mem.Relation().Get(id)
						if !ok {
							tp = inBatch[id]
						}
						updates = append(updates, relation.Update{Kind: relation.Delete, Tuple: tp})
					}
				}
				sd, err := stored.Apply(updates)
				if err != nil {
					t.Fatalf("round %d: stored apply: %v", round, err)
				}
				md, err := mem.Apply(updates)
				if err != nil {
					t.Fatalf("round %d: mem apply: %v", round, err)
				}
				if sd.Size() != md.Size() {
					t.Fatalf("round %d: ∆V size %d vs %d", round, sd.Size(), md.Size())
				}
				if !stored.Violations().Equal(mem.Violations()) {
					t.Fatalf("round %d: V diverged", round)
				}
				if !stored.Relation().Equal(mem.Relation()) {
					t.Fatalf("round %d: relation diverged", round)
				}
				// V also matches a fresh from-scratch detect.
				if !stored.Violations().Equal(Detect(mem.Relation(), stored.Rules())) {
					t.Fatalf("round %d: V diverged from fresh detect", round)
				}

				switch {
				case round == 5 && !extraRule:
					nr := cfd.CFD{ID: "phi-extra", LHS: []string{"B"}, RHS: "D",
						LHSPattern: []string{"_"}, RHSPattern: "_"}
					if _, err := stored.AddRules([]cfd.CFD{nr}); err != nil {
						t.Fatalf("stored AddRules: %v", err)
					}
					if _, err := mem.AddRules([]cfd.CFD{nr}); err != nil {
						t.Fatalf("mem AddRules: %v", err)
					}
					extraRule = true
				case round == 9 && extraRule:
					if _, err := stored.RemoveRules([]string{"phi-extra"}); err != nil {
						t.Fatalf("stored RemoveRules: %v", err)
					}
					if _, err := mem.RemoveRules([]string{"phi-extra"}); err != nil {
						t.Fatalf("mem RemoveRules: %v", err)
					}
					extraRule = false
				}
				if !stored.Violations().Equal(mem.Violations()) {
					t.Fatalf("round %d: V diverged after rule churn", round)
				}
			}
			stats := stored.StorageStats()
			if stats["tuples"].Faults+stats["groups"].Faults+stats["postings"].Faults == 0 {
				t.Fatal("no store ever faulted — budget not exercised")
			}
			if !mem.Stored() == false || !stored.Stored() {
				t.Fatal("Stored() misreports mode")
			}
		})
	}
}

// TestStoredDeltaReplay checks a stored maintainer's ∆V replays onto an
// old V exactly like the in-memory maintainer's.
func TestStoredDeltaReplay(t *testing.T) {
	schema := relation.MustSchema("R", "A", "B", "C", "D")
	dom := func(a string, i int) string { return fmt.Sprintf("%s%d", a, i) }
	rules := testRules(dom)
	rng := rand.New(rand.NewSource(3))
	rel := relation.New(schema)
	for i := 1; i <= 30; i++ {
		vals := make([]string, 4)
		for j, a := range schema.Attrs {
			vals[j] = dom(a, rng.Intn(3))
		}
		rel.MustInsert(relation.Tuple{ID: relation.TupleID(i), Values: vals})
	}
	stored, err := NewIncrementalStored(rel, rules, testStorage(t, 1<<10))
	if err != nil {
		t.Fatal(err)
	}
	old := Detect(rel, rules)
	var updates relation.UpdateList
	for i := 31; i <= 45; i++ {
		vals := make([]string, 4)
		for j, a := range schema.Attrs {
			vals[j] = dom(a, rng.Intn(3))
		}
		updates = append(updates, relation.Update{Kind: relation.Insert,
			Tuple: relation.Tuple{ID: relation.TupleID(i), Values: vals}})
	}
	delta, err := stored.Apply(updates)
	if err != nil {
		t.Fatal(err)
	}
	delta.Apply(old)
	if !old.Equal(stored.Violations()) {
		t.Fatal("∆V replay diverged from maintained V")
	}
}
