//go:build !race

package session

import (
	"fmt"
	"testing"

	"repro/internal/cfd"
	"repro/internal/relation"
)

// queryFixture builds a centralized session over n tuples where rule
// "big" is violated by every tuple and rule "small" by exactly two: the
// shape where a full-V scan and a posting lookup differ by 2–3 orders
// of magnitude.
func queryFixture(t testing.TB, n int) *Session {
	schema := relation.MustSchema("R", "a", "b", "c")
	rules, err := cfd.ParseAll(`
big:   ([a] -> [b], (_, _))
small: ([c] -> [b], (_, _))
`)
	if err != nil {
		t.Fatal(err)
	}
	rel := relation.New(schema)
	for i := 1; i <= n; i++ {
		c := fmt.Sprintf("c%d", i)
		if i <= 2 {
			c = "shared" // two tuples agree on c, disagree on b
		}
		rel.MustInsert(relation.Tuple{ID: relation.TupleID(i), Values: []string{
			"same", fmt.Sprintf("b%d", i), c,
		}})
	}
	s, err := Open(rel, rules)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestQueryAnswersFromPostings is the O(answer) guard: the allocations
// of an indexed query must not depend on |V|. A full-V scan would touch
// 25× more state in the large fixture; identical alloc counts pin that
// the answer comes from the posting index alone.
func TestQueryAnswersFromPostings(t *testing.T) {
	smallV := queryFixture(t, 200)
	bigV := queryFixture(t, 5000)
	defer smallV.Close()
	defer bigV.Close()

	counts := map[string]int{}
	for _, rc := range bigV.Count() {
		counts[rc.Rule] = rc.Count
	}
	if counts["small"] != 2 || counts["big"] != 5000 {
		t.Fatalf("fixture: counts %v, want small 2, big 5000", counts)
	}

	measure := func(s *Session) (byRule, byTuple, count float64) {
		var sink int
		byRule = testing.AllocsPerRun(200, func() {
			sink += len(s.Query(ByRule("small")))
		})
		byTuple = testing.AllocsPerRun(200, func() {
			sink += len(s.Query(ByTuple(1), ByRule("small")))
		})
		count = testing.AllocsPerRun(200, func() {
			sink += len(s.Count())
		})
		_ = sink
		return
	}
	sr, st, sc := measure(smallV)
	br, bt, bc := measure(bigV)
	if sr != br {
		t.Errorf("Query(ByRule) allocations scale with |V|: %.1f at |V|=200 vs %.1f at |V|=5000", sr, br)
	}
	if st != bt {
		t.Errorf("Query(ByTuple) allocations scale with |V|: %.1f vs %.1f", st, bt)
	}
	if sc != bc {
		t.Errorf("Count allocations scale with |V|: %.1f vs %.1f", sc, bc)
	}
	const bound = 24 // small constant: result slices + per-row rule lists
	for name, v := range map[string]float64{"ByRule": br, "ByTuple": bt, "Count": bc} {
		if v > bound {
			t.Errorf("%s allocates %.1f objects per query, want ≤ %d", name, v, bound)
		}
	}
}

// BenchmarkQueryIndexed documents the read-side cost directly: an
// indexed two-row answer out of a 5000-tuple V.
func BenchmarkQueryIndexed(b *testing.B) {
	s := queryFixture(b, 5000)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Query(ByRule("small"))) != 2 {
			b.Fatal("bad answer")
		}
	}
}

// BenchmarkQueryFullScan is the contrast: enumerating all of V.
func BenchmarkQueryFullScan(b *testing.B) {
	s := queryFixture(b, 5000)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Query()) != 5000 {
			b.Fatal("bad answer")
		}
	}
}
