//go:build !race

package horizontal

import (
	"testing"

	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestWaveAllocBound pins the allocation diet of the horizontal wave: in
// process (nothing encoded: what is counted is the driver's tables, the
// handlers and their replies), over 50 rules, four hash sites and 1 000
// rows, a wave of one stays within 14 allocations per update and a wave of
// 64 within 6.2. They measure 13.0 and 5.9: a round seals V and returns
// its ∆V as the diff against that seal, so the wave's marks copy the trie
// nodes they reach, each with the one array it edits (a fresh tuple id
// also allocates its nodes), a site answers a small call in reply arrays
// it keeps, a group slab that grows over the kept groups keeps their
// slices' arrays, a call boxes neither request nor reply nor allocates
// to size them, and a round body is a static func, no closure.
// Fan-out closures and sizing copies cost 17.0 and 6.1, boxed calls 19.0
// and 6.2; fresh reply arrays per call and node copies with both
// arrays and every posting 24.0 and 6.4; accumulating ∆V in a
// builder of its own and re-making the slab whenever it grew cost 23.9
// and 9.4; owner settles sent for groups where nothing flips, and groups
// held as maps of classes, cost 27 and 9.7, and classes holding their
// members in maps, per-call maps of touched groups and per-wave driver
// maps once cost 330 and 136.
func TestWaveAllocBound(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 5, 2000)
	rel := gen.Relation(1000)
	rules := gen.Rules(50)
	for _, c := range []struct {
		batch, rounds int
		bound         float64
	}{{1, 400, 14}, {64, 20, 6.2}} {
		sys, _ := localSystem(t, rel, partition.HashHorizontal("c_name", 4), rules, Options{})
		mirror := rel.Clone()
		batches := make([]relation.UpdateList, c.rounds+4)
		for i := range batches {
			batches[i] = gen.Updates(mirror, c.batch, 0.5)
			if err := batches[i].Normalize().Apply(mirror); err != nil {
				t.Fatal(err)
			}
		}
		next := 0
		apply := func() {
			if _, err := sys.Apply(batches[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for next < 3 { // the kept tables fill
			apply()
		}
		perUpdate := testing.AllocsPerRun(c.rounds, apply) / float64(c.batch)
		t.Logf("wave of %d: %.1f allocations per update", c.batch, perUpdate)
		if perUpdate > c.bound {
			t.Errorf("a wave of %d allocates %.1f times per update, bound %.1f", c.batch, perUpdate, c.bound)
		}
	}
}
