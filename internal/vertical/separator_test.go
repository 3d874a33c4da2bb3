package vertical

import (
	"testing"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/partition"
	"repro/internal/relation"
)

// TestSeparatorCollisionAgainstOracle drives adversarial \x1f-bearing
// values through incVer (with and without the optimizer) and batVer,
// checking against the centralized oracle. Vertical grouping composes
// per-attribute eqids, so it never suffered the joined-key aliasing —
// this pins that the oracle itself (and the batVer coordinator's
// grouping) now agrees on adversarial data too.
func TestSeparatorCollisionAgainstOracle(t *testing.T) {
	s := relation.MustSchema("R", "a", "b", "c", "d")
	rules, err := cfd.ParseAll(`phi: ([a, b] -> [c], (_, _, _))`)
	if err != nil {
		t.Fatal(err)
	}
	for _, useOpt := range []bool{false, true} {
		rel := relation.New(s)
		for id, vals := range [][]string{
			1: {"x\x1f", "y", "1", "p"},
			2: {"x", "\x1fy", "2", "p"},
			3: {"a\x1fb", "q", "1", "p"},
		} {
			if vals == nil {
				continue
			}
			rel.MustInsert(relation.Tuple{ID: relation.TupleID(id), Values: vals})
		}
		sys, _ := localSystem(t, rel, partition.RoundRobinVertical(s, 3), rules, useOpt)
		updates := relation.UpdateList{
			{Kind: relation.Insert, Tuple: relation.Tuple{ID: 4, Values: []string{"a", "b\x1fq", "2", "p"}}},
			{Kind: relation.Insert, Tuple: relation.Tuple{ID: 5, Values: []string{"x\x1f", "y", "3", "p"}}},
		}
		if _, err := sys.Apply(updates); err != nil {
			t.Fatal(err)
		}
		updated := rel.Clone()
		if err := updates.Normalize().Apply(updated); err != nil {
			t.Fatal(err)
		}
		want := centralized.BruteForce(updated, rules)
		if !sys.Violations().Equal(want) {
			t.Fatalf("useOpt=%v: incVer diverged on adversarial separators:\n got %v\nwant %v",
				useOpt, sys.Violations(), want)
		}
		bat, err := sys.BatchDetect()
		if err != nil {
			t.Fatal(err)
		}
		if !bat.Equal(want) {
			t.Fatalf("useOpt=%v: batVer diverged:\n got %v\nwant %v", useOpt, bat, want)
		}
	}
}
