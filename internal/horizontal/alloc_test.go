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
// rows, a wave of one stays within 140 allocations per update and a wave
// of 64 within 72, where classes holding their members in maps, per-call
// maps of touched groups and per-wave driver maps cost 330 and 136.
func TestWaveAllocBound(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 5, 2000)
	rel := gen.Relation(1000)
	rules := gen.Rules(50)
	for _, c := range []struct {
		batch, rounds int
		bound         float64
	}{{1, 400, 140}, {64, 20, 72}} {
		sys, err := NewSystem(rel, partition.HashHorizontal("c_name", 4), rules, Options{})
		if err != nil {
			t.Fatal(err)
		}
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
			t.Errorf("a wave of %d allocates %.1f times per update, bound %.0f", c.batch, perUpdate, c.bound)
		}
	}
}
