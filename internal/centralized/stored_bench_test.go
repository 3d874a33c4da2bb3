package centralized

import (
	"fmt"
	"testing"

	"repro/internal/relation"
)

// storedGroupFixture builds a stored maintainer over rigSchema and
// rigRules whose whole relation is one group of n members, the even ids
// 2..2n split over two B-values — so odd ids are free, land mid-record,
// and flip no other member's mark.
func storedGroupFixture(tb testing.TB, st Storage, n int) *Incremental {
	tb.Helper()
	rel := relation.New(rigSchema)
	for i := 1; i <= n; i++ {
		rel.MustInsert(rigTuple(relation.TupleID(2*i), string(rune('a'+i%2))))
	}
	inc, err := NewIncrementalStored(rel, rigRules, st)
	if err != nil {
		tb.Fatal(err)
	}
	return inc
}

// BenchmarkStoredApply measures the stored engine's update path against
// group size: one op is a round of 16 inserts into the middle of an
// n-member group and a round deleting them again, each round flushed.
func BenchmarkStoredApply(b *testing.B) {
	backends := []struct {
		name string
		open func() Storage
	}{
		{"mem", memStorage},
		{"disk", func() Storage { return testStorage(b, 64<<10) }},
	}
	for _, be := range backends {
		for _, n := range []int{16, 256, 4096} {
			b.Run(fmt.Sprintf("store=%s/group=%d", be.name, n), func(b *testing.B) {
				inc := storedGroupFixture(b, be.open(), n)
				var ins, del relation.UpdateList
				for k := 0; k < 16; k++ {
					t := rigTuple(relation.TupleID(n+2*k+1), "a")
					ins = append(ins, relation.Update{Kind: relation.Insert, Tuple: t})
					del = append(del, relation.Update{Kind: relation.Delete, Tuple: t})
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := inc.Apply(ins); err != nil {
						b.Fatal(err)
					}
					if _, err := inc.Apply(del); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
