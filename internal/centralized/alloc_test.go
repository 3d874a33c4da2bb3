//go:build !race

package centralized

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
)

// TestDetectAllocCeiling bounds Detect's allocations per tuple. The
// compiled-rule + byte-key implementation sits around 0.8 allocations
// per tuple on this workload (group keys, member slices, violation
// marks); the ceiling of 4 leaves headroom for map growth while still
// catching any return of per-(rule × tuple) allocations — the pre-fix
// implementation spent ~22 per tuple. (Excluded under -race.)
func TestDetectAllocCeiling(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 42, 4000)
	rules := gen.Rules(50)
	rel := gen.Relation(2000)
	Detect(rel, rules) // warm gob/runtime caches outside the measurement

	allocs := testing.AllocsPerRun(3, func() {
		Detect(rel, rules)
	})
	perTuple := allocs / float64(rel.Len())
	t.Logf("Detect: %.0f allocs total, %.2f per tuple (|D|=%d, |Σ|=%d)", allocs, perTuple, rel.Len(), len(rules))
	if perTuple > 4 {
		t.Errorf("Detect allocates %.2f objects per tuple, ceiling is 4", perTuple)
	}
}

// TestStoredApplyAllocsIndependentOfGroupSize is the proportionality
// guard for the stored update path: inserting a member into a group and
// deleting it again allocates exactly as many objects whether the group
// has 64 members or 4 096 — the record editor never materializes the
// group. Measured on MemStore, which isolates the engine: a DiskStore
// adds compactions, whose frequency follows the bytes rewritten (the
// record is still rewritten whole).
func TestStoredApplyAllocsIndependentOfGroupSize(t *testing.T) {
	measure := func(n int) float64 {
		inc := storedGroupFixture(t, memStorage(), n)
		tup := rigTuple(relation.TupleID(n+1), "a")
		ins := relation.UpdateList{{Kind: relation.Insert, Tuple: tup}}
		del := relation.UpdateList{{Kind: relation.Delete, Tuple: tup}}
		return testing.AllocsPerRun(100, func() {
			if _, err := inc.Apply(ins); err != nil {
				t.Fatal(err)
			}
			if _, err := inc.Apply(del); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := measure(64), measure(4096)
	if small != big {
		t.Errorf("stored update allocations scale with the group: %.0f per insert+delete at 64 members, %.0f at 4096", small, big)
	}
}
