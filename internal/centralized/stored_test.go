package centralized

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/xerr"
)

// testStorage opens the two stores of a stored maintainer in a temp
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
	}
}

// TestStoredMatchesIncremental drives a stored maintainer and the
// in-memory maintainer through identical random batches — plus rule
// additions and removals — under a tiny page-cache budget, asserting V,
// ∆V and the maintained relation agree after every round. This is the
// engine-level eviction-correctness oracle: with budgets this small,
// every batch faults and evicts pages in both stores.
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
			if stats["tuples"].Faults+stats["groups"].Faults == 0 {
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

// errInjected is failingStore's read failure.
var errInjected = errors.New("injected read failure")

// failingStore is a Store whose Get starts failing after ok more calls
// (ok < 0: never).
type failingStore struct {
	storage.Store
	ok int
}

func (f *failingStore) Get(key []byte) ([]byte, bool, error) {
	if f.ok == 0 {
		return nil, false, errInjected
	}
	if f.ok > 0 {
		f.ok--
	}
	return f.Store.Get(key)
}

// TestStoredTupleStoreFailureIsTyped pins the tuple store's failure
// contract: a Get that fails partway through a batch surfaces as an
// error wrapping both xerr.ErrStoreCorrupt and the store's own error —
// never a panic — and the failure sticks: every later write fails the
// same way, even once the store answers again.
func TestStoredTupleStoreFailureIsTyped(t *testing.T) {
	schema := relation.MustSchema("R", "A", "B", "C", "D")
	dom := func(a string, i int) string { return fmt.Sprintf("%s%d", a, i) }
	rules := testRules(dom)
	rng := rand.New(rand.NewSource(5))
	rel := relation.New(schema)
	for i := 1; i <= 30; i++ {
		vals := make([]string, 4)
		for j, a := range schema.Attrs {
			vals[j] = dom(a, rng.Intn(3))
		}
		rel.MustInsert(relation.Tuple{ID: relation.TupleID(i), Values: vals})
	}
	tuples := &failingStore{Store: storage.NewMem(), ok: -1}
	inc, err := NewIncrementalStored(rel, rules, Storage{Tuples: tuples, Groups: storage.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	var batch relation.UpdateList
	for _, id := range []relation.TupleID{3, 7, 11} {
		tp, _ := rel.Get(id)
		batch = append(batch, relation.Update{Kind: relation.Delete, Tuple: tp})
	}
	tuples.ok = 3 // the second delete's read fails
	isStoreFailure := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, xerr.ErrStoreCorrupt) || !errors.Is(err, errInjected) {
			t.Fatalf("%s: err = %v, want ErrStoreCorrupt wrapping the store's failure", what, err)
		}
	}
	_, err = inc.Apply(batch)
	isStoreFailure("Apply", err)

	tuples.ok = -1
	tp := relation.Tuple{ID: 100, Values: []string{"A0", "B0", "C0", "D0"}}
	_, err = inc.Apply(relation.UpdateList{{Kind: relation.Insert, Tuple: tp}})
	isStoreFailure("later Apply", err)
	extra := cfd.CFD{ID: "phi-extra", LHS: []string{"B"}, RHS: "D", LHSPattern: []string{"_"}, RHSPattern: "_"}
	_, err = inc.AddRules([]cfd.CFD{extra})
	isStoreFailure("AddRules", err)
	_, err = inc.RemoveRules([]string{rules[0].ID})
	isStoreFailure("RemoveRules", err)
	isStoreFailure("Flush", inc.Flush())
}
