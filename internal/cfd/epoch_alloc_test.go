//go:build !race

package cfd

import (
	"fmt"
	"testing"

	"repro/internal/relation"
)

// epochFixture builds a tracked violation set with n resident tuples.
func epochFixture(n int) *Violations {
	v := NewViolations()
	r1 := v.Intern("phi1")
	v.Intern("phi2")
	for i := 0; i < n; i++ {
		v.AddIdx(relation.TupleID(i), r1)
	}
	v.Snapshot() // arm epoch tracking, publish epoch 1
	return v
}

// TestEpochPublishCostProportionalToDelta pins the copy-on-write claim:
// publishing an epoch after k mark flips allocates O(k · trie depth) —
// NOT O(|V|). A full-copy snapshot would allocate ~40× more on the large
// fixture; here the two counts may differ only by the one extra trie
// level a 40×-larger key space needs.
func TestEpochPublishCostProportionalToDelta(t *testing.T) {
	measure := func(n int) float64 {
		v := epochFixture(n)
		r2 := v.Intern("phi2")
		id := relation.TupleID(n / 2)
		return testing.AllocsPerRun(200, func() {
			v.AddIdx(id, r2)
			v.Publish()
			v.RemoveIdx(id, r2)
			v.Publish()
		})
	}
	small := measure(500)
	big := measure(20000)
	if small == 0 {
		t.Fatal("fixture broken: publish of a real delta cannot be allocation-free")
	}
	if big > 3*small {
		t.Errorf("epoch publish cost scales with |V|: %.1f allocs at |V|=500 vs %.1f at |V|=20000", small, big)
	}
	// Absolute ceiling: two publishes of a one-mark delta each copy one
	// root-to-leaf path in the marks trie and one in a posting trie plus
	// the per-epoch headers — a small constant.
	const bound = 60
	if big > bound {
		t.Errorf("epoch publish allocates %.1f objects per flip+publish pair, want ≤ %d", big, bound)
	}
}

// TestEpochUntrackedMarkPathStaysFree re-asserts the warm-mark 0-alloc
// guard holds with the epoch hooks compiled in but tracking unarmed —
// the engines' steady-state mark path is unchanged until someone
// snapshots.
func TestEpochUntrackedMarkPathStaysFree(t *testing.T) {
	v := NewViolations()
	r1, r2 := v.Intern("phi1"), v.Intern("phi2")
	v.AddIdx(7, r1)
	allocs := testing.AllocsPerRun(1000, func() {
		v.AddIdx(7, r1)
		v.AddIdx(7, r2)
		v.RemoveIdx(7, r2)
	})
	if allocs != 0 {
		t.Errorf("untracked warm marks allocated %.1f objects per run, want 0", allocs)
	}
}

// TestEpochTrackedWarmMarksAmortizeToZero: with tracking armed, the
// pending log reuses its capacity across publishes, so steady-state
// batches allocate only the epoch publish itself — the note hook adds
// nothing once the log has grown.
func TestEpochTrackedWarmMarksAmortizeToZero(t *testing.T) {
	v := epochFixture(64)
	r2 := v.Intern("phi2")
	// Warm the pending log's capacity.
	for i := 0; i < 32; i++ {
		v.AddIdx(relation.TupleID(i), r2)
	}
	v.Publish()
	allocs := testing.AllocsPerRun(500, func() {
		for i := 0; i < 32; i++ {
			v.AddIdx(relation.TupleID(i), r2)
			v.RemoveIdx(relation.TupleID(i), r2)
		}
	})
	if allocs != 0 {
		t.Errorf("tracked warm marks allocated %.1f objects per run, want 0 (log capacity should be reused)", allocs)
	}
	// Sanity: the state did not drift.
	if got := v.Publish().CountRule("phi2"); got != 0 {
		t.Errorf("CountRule(phi2) = %d, want 0", got)
	}
}

// BenchmarkEpochPublish documents the per-batch epoch cost at a
// realistic delta size.
func BenchmarkEpochPublish(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("V=%d", n), func(b *testing.B) {
			v := epochFixture(n)
			r2 := v.Intern("phi2")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < 64; k++ {
					v.AddIdx(relation.TupleID((i*64+k)%n), r2)
				}
				v.Publish()
				for k := 0; k < 64; k++ {
					v.RemoveIdx(relation.TupleID((i*64+k)%n), r2)
				}
				v.Publish()
			}
		})
	}
}
