package session

import (
	"context"
	"math/rand"
	"os"
	"slices"
	"sort"
	"testing"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/partition"
	"repro/internal/workload"
)

// TestStoredSessionDifferentialOracle is the session-level
// eviction-correctness oracle: for 20 seeds, an out-of-core session
// under a page-cache budget far below its data size runs the same
// batches and rule churn as a fully in-memory session, and after every
// step the two maintained violation sets — and a fresh centralized
// detection — must agree exactly. The tiny budget keeps both
// stores faulting and evicting throughout, so any page lost, stale or
// misdecoded under cache churn breaks V.
func TestStoredSessionDifferentialOracle(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)*104729 + 17))
			gen := workload.NewSized(workload.TPCH, int64(seed)+500, 900)
			pool := gen.Rules(6)
			rel := gen.Relation(200 + rng.Intn(100))

			stored, err := Open(rel, pool[:3],
				WithStorageDir(t.TempDir()), WithPageCacheBudget(4<<10))
			if err != nil {
				t.Fatal(err)
			}
			defer stored.Close()
			mem, err := Open(rel, pool[:3])
			if err != nil {
				t.Fatal(err)
			}
			defer mem.Close()

			if stored.StorageStats() == nil {
				t.Fatal("stored session reports no storage stats")
			}
			if mem.StorageStats() != nil {
				t.Fatal("in-memory session reports storage stats")
			}

			mirror := rel.Clone()
			active := append([]cfd.CFD(nil), pool[:3]...)
			inForce := map[string]bool{pool[0].ID: true, pool[1].ID: true, pool[2].ID: true}

			check := func(step int, action string) {
				t.Helper()
				if !stored.Violations().Equal(mem.Violations()) {
					t.Fatalf("seed %d step %d (%s): stored V diverged from in-memory", seed, step, action)
				}
				if !stored.Violations().Equal(centralized.Detect(mirror, active)) {
					t.Fatalf("seed %d step %d (%s): stored V diverged from fresh detect", seed, step, action)
				}
				if stored.Rows() != mem.Rows() {
					t.Fatalf("seed %d step %d (%s): rows %d vs %d", seed, step, action, stored.Rows(), mem.Rows())
				}
			}

			check(0, "initial")
			for step := 1; step <= 10; step++ {
				switch rng.Intn(4) {
				case 0, 1: // update batch (weighted: most steps are batches)
					updates := gen.Updates(mirror, 15+rng.Intn(30), 0.5+rng.Float64()*0.4)
					sd, err := stored.ApplyBatch(context.Background(), updates)
					if err != nil {
						t.Fatalf("seed %d step %d: stored ApplyBatch: %v", seed, step, err)
					}
					md, err := mem.ApplyBatch(context.Background(), updates)
					if err != nil {
						t.Fatalf("seed %d step %d: mem ApplyBatch: %v", seed, step, err)
					}
					if sd.Size() != md.Size() {
						t.Fatalf("seed %d step %d: ∆V size %d vs %d", seed, step, sd.Size(), md.Size())
					}
					if err := updates.Normalize().Apply(mirror); err != nil {
						t.Fatal(err)
					}
					check(step, "batch")
				case 2: // add a not-in-force rule, if any
					var candidate *cfd.CFD
					for i := range pool {
						if !inForce[pool[i].ID] {
							candidate = &pool[i]
							break
						}
					}
					if candidate == nil {
						continue
					}
					if _, err := stored.AddRules(*candidate); err != nil {
						t.Fatalf("seed %d step %d: stored AddRules: %v", seed, step, err)
					}
					if _, err := mem.AddRules(*candidate); err != nil {
						t.Fatalf("seed %d step %d: mem AddRules: %v", seed, step, err)
					}
					inForce[candidate.ID] = true
					active = append(active, *candidate)
					check(step, "add "+candidate.ID)
				case 3: // remove a random in-force rule (keep at least one)
					if len(active) <= 1 {
						continue
					}
					victim := active[rng.Intn(len(active))]
					if _, err := stored.RemoveRules(victim.ID); err != nil {
						t.Fatalf("seed %d step %d: stored RemoveRules: %v", seed, step, err)
					}
					if _, err := mem.RemoveRules(victim.ID); err != nil {
						t.Fatalf("seed %d step %d: mem RemoveRules: %v", seed, step, err)
					}
					delete(inForce, victim.ID)
					kept := active[:0:0]
					for _, r := range active {
						if r.ID != victim.ID {
							kept = append(kept, r)
						}
					}
					active = kept
					check(step, "remove "+victim.ID)
				}
			}

			// The budget must actually have been exercised: pages faulted
			// in and (with data far beyond 4 KiB) evicted again.
			st := stored.StorageStats()
			var faults, evictions uint64
			for _, s := range st {
				faults += s.Faults
				evictions += s.Evictions
			}
			if faults == 0 {
				t.Fatalf("seed %d: no store ever faulted — budget not exercised", seed)
			}
			if evictions == 0 {
				t.Fatalf("seed %d: no store ever evicted — budget not exercised", seed)
			}

			// Read surface parity on the final state: counts and measures
			// agree with the in-memory session.
			mv := mem.Violations()
			for _, rc := range stored.Count() {
				n := 0
				for _, id := range mv.Tuples() {
					if mv.HasRule(id, rc.Rule) {
						n++
					}
				}
				if n != rc.Count {
					t.Fatalf("seed %d: stored count %d != mem scan %d for %s", seed, rc.Count, n, rc.Rule)
				}
			}
			if sm, mm := stored.Measures(), mem.Measures(); sm != mm {
				t.Fatalf("seed %d: measures diverged: %+v vs %+v", seed, sm, mm)
			}
		})
	}
}

// TestStoredSessionFiles pins the out-of-core layout: a stored session
// pages exactly its tuples and its grouping indexes, one file each, and
// reports exactly those two stores. The marks and the epoch tries that
// carry the per-rule postings stay resident.
func TestStoredSessionFiles(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 3, 200)
	rules := gen.Rules(3)
	rel := gen.Relation(80)
	dir := t.TempDir()

	s, err := Open(rel, rules, WithStorageDir(dir), WithPageCacheBudget(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.ApplyBatch(context.Background(), gen.Updates(rel.Clone(), 20, 0.5)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	sort.Strings(files)
	if want := []string{groupsFile, tuplesFile}; !slices.Equal(files, want) {
		t.Fatalf("storage dir holds %v, want %v", files, want)
	}
	var keys []string
	for k := range s.StorageStats() {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"groups", "tuples"}; !slices.Equal(keys, want) {
		t.Fatalf("StorageStats keys %v, want %v", keys, want)
	}
}

// TestStorageOptionValidation pins the option interaction contract.
func TestStorageOptionValidation(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 1, 100)
	rules := gen.Rules(2)
	rel := gen.Relation(20)

	if _, err := Open(rel, rules, WithPageCacheBudget(1<<20)); err == nil {
		t.Fatal("WithPageCacheBudget without WithStorageDir did not fail")
	}
	if _, err := Open(rel, rules,
		WithHorizontal(partition.HashHorizontal("c_name", 2)),
		WithStorageDir(t.TempDir())); err == nil {
		t.Fatal("WithStorageDir on a horizontal session did not fail")
	}
	if _, err := Open(rel, rules, WithStorageDir("")); err == nil {
		t.Fatal("empty storage dir did not fail")
	}
}

// TestStoredSessionDirReuse pins the empty-store requirement: an
// out-of-core session seeds its stores from rel, so reopening a used
// directory must fail loudly instead of mixing two seedings.
func TestStoredSessionDirReuse(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 2, 100)
	rules := gen.Rules(2)
	rel := gen.Relation(30)
	dir := t.TempDir()

	s, err := Open(rel, rules, WithStorageDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyBatch(context.Background(), gen.Updates(rel.Clone(), 10, 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(rel, rules, WithStorageDir(dir)); err == nil {
		t.Fatal("reopening a used storage dir did not fail")
	}
}
