package cfd

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

func newPostStore(t *testing.T, budget int64) storage.Store {
	t.Helper()
	st, err := storage.OpenDisk(filepath.Join(t.TempDir(), "post.dat"), storage.DiskOptions{
		PageFor:     PostPager,
		CacheBudget: budget,
		Monotone:    true,
		Kind:        'P',
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestStoredPostingsDifferential churns the same random mark flips
// through a default Violations and a stored-postings one — with flushes
// at round boundaries and a tiny page-cache budget — and asserts the
// whole read surface stays identical: Equal both ways, per-rule counts,
// sorted posting lists, histogram, measures, and epoch snapshots.
func TestStoredPostingsDifferential(t *testing.T) {
	rules := make([]string, 7)
	for i := range rules {
		rules[i] = fmt.Sprintf("phi%d", i)
	}
	st := newPostStore(t, 2<<10)
	sv := NewViolations()
	if err := sv.UseStoredPostings(st); err != nil {
		t.Fatal(err)
	}
	mv := NewViolations()
	for _, r := range rules {
		sv.Intern(r)
		mv.Intern(r)
	}
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 60; round++ {
		for op := 0; op < 50; op++ {
			id := relation.TupleID(rng.Intn(5000))
			idx := RuleIdx(rng.Intn(len(rules)))
			if rng.Intn(3) == 0 {
				sv.RemoveIdx(id, idx)
				mv.RemoveIdx(id, idx)
			} else {
				sv.AddIdx(id, idx)
				mv.AddIdx(id, idx)
			}
		}
		if err := sv.FlushPostings(); err != nil {
			t.Fatal(err)
		}
		if !sv.Equal(mv) || !mv.Equal(sv) {
			t.Fatalf("round %d: violation sets diverged", round)
		}
		for i, r := range rules {
			if sc, mc := sv.CountIdx(RuleIdx(i)), mv.CountIdx(RuleIdx(i)); sc != mc {
				t.Fatalf("round %d: CountIdx(%s) = %d want %d", round, r, sc, mc)
			}
			si, mi := sv.TuplesOfRule(r), mv.TuplesOfRule(r)
			if len(si) != len(mi) {
				t.Fatalf("round %d: TuplesOfRule(%s): %d vs %d ids", round, r, len(si), len(mi))
			}
			for j := range si {
				if si[j] != mi[j] {
					t.Fatalf("round %d: TuplesOfRule(%s)[%d]: %d vs %d", round, r, j, si[j], mi[j])
				}
			}
		}
		sh, mh := sv.Histogram(), mv.Histogram()
		for i := range sh {
			if sh[i] != mh[i] {
				t.Fatalf("round %d: histogram row %d: %+v vs %+v", round, i, sh[i], mh[i])
			}
		}
		if sv.Measure() != mv.Measure() {
			t.Fatalf("round %d: measures diverged", round)
		}
		// Epoch snapshots answer identically from both backends.
		if ss, ms := sv.Snapshot(), mv.Snapshot(); !ss.Equal(ms) {
			t.Fatalf("round %d: snapshots diverged", round)
		}
	}
	if st.Stats().Evictions == 0 {
		t.Fatal("tiny budget never forced an eviction")
	}
	// Clone materializes an equal in-memory set.
	c := sv.Clone()
	if c.StoredPostings() {
		t.Fatal("clone still stored")
	}
	if !c.Equal(mv) {
		t.Fatal("clone diverged")
	}
}

// TestStoredPostingsDeterministic runs the same flips twice over a
// budget of a few pages and asserts the posting store's counters agree
// exactly: flush visits buckets in ascending order, so cache hits,
// faults and evictions are a function of the input, not of Go's map
// iteration order.
func TestStoredPostingsDeterministic(t *testing.T) {
	run := func() storage.Stats {
		sv := NewViolations()
		if err := sv.UseStoredPostings(newPostStore(t, 2<<10)); err != nil {
			t.Fatal(err)
		}
		r0, r1 := sv.Intern("phi0"), sv.Intern("phi1")
		rng := rand.New(rand.NewSource(5))
		for round := 0; round < 40; round++ {
			for op := 0; op < 60; op++ {
				id := relation.TupleID(rng.Intn(40 << PostBucketShift))
				idx := []RuleIdx{r0, r1}[rng.Intn(2)]
				if rng.Intn(3) == 0 {
					sv.RemoveIdx(id, idx)
				} else {
					sv.AddIdx(id, idx)
				}
			}
			if err := sv.FlushPostings(); err != nil {
				t.Fatal(err)
			}
		}
		return sv.PostingStats()
	}
	a, b := run(), run()
	if a.Evictions == 0 {
		t.Fatal("tiny budget never forced an eviction")
	}
	if a != b {
		t.Fatalf("identical runs, different posting stats:\n%+v\n%+v", a, b)
	}
}

// TestStoredPostingsGuards pins the UseStoredPostings preconditions.
func TestStoredPostingsGuards(t *testing.T) {
	st := newPostStore(t, 0)
	v := NewViolations()
	v.Intern("phi0")
	if err := v.UseStoredPostings(st); err == nil {
		t.Fatal("accepted a non-empty violation set")
	}
	st.Put([]byte("k"), []byte("v"))
	if err := NewViolations().UseStoredPostings(st); err == nil {
		t.Fatal("accepted a non-empty store")
	}
}

// TestPostPagerMonotone checks the pager is non-decreasing in key order
// including across the saturation cap, the property EachRange's page
// bounding relies on.
func TestPostPagerMonotone(t *testing.T) {
	var prev uint32
	var prevKey []byte
	for _, idx := range []RuleIdx{0, 1, 2, 63} {
		for _, bucket := range []uint64{0, 1, 7, postPageCap - 2, postPageCap - 1, postPageCap, 1 << 40} {
			key := PostKey(nil, idx, bucket)
			p := PostPager(key)
			if prevKey != nil && p < prev {
				t.Fatalf("pager decreased: key %x page %d after key %x page %d", key, p, prevKey, prev)
			}
			prev, prevKey = p, key
		}
	}
	// Short range-bound keys (rule prefix only) page like bucket 0.
	if PostPager(PostKey(nil, 3, 0)[:4]) != PostPager(PostKey(nil, 3, 0)) {
		t.Fatal("rule-prefix key pages differently from bucket 0")
	}
}
