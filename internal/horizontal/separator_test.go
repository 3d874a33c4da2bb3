package horizontal

import (
	"testing"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/partition"
	"repro/internal/relation"
)

// TestSeparatorCollisionAgainstOracle runs adversarial \x1f-bearing
// values through the full incHor protocol (MD5 coding on and off) and
// checks the result against the centralized oracle — the regression net
// for the separator-collision bug in grouping keys and MD5 framing:
// ["a\x1f","b"] and ["a","\x1fb"] used to share a digest.
func TestSeparatorCollisionAgainstOracle(t *testing.T) {
	s := relation.MustSchema("R", "a", "b", "c")
	rules, err := cfd.ParseAll(`phi: ([a, b] -> [c], (_, _, _))`)
	if err != nil {
		t.Fatal(err)
	}
	base := [][]string{
		1: {"x\x1f", "y", "1"},
		2: {"x", "\x1fy", "2"},
		3: {"a\x1fb", "q", "1"},
	}
	adds := [][]string{
		4: {"a", "b\x1fq", "2"},
		5: {"x\x1f", "y", "3"}, // real partner for t1
		6: {"\x1f", "", "7"},
		7: {"", "\x1f", "8"}, // collides with t6 under joined keys
	}
	for _, disableMD5 := range []bool{false, true} {
		rel := relation.New(s)
		for id, vals := range base {
			if vals == nil {
				continue
			}
			rel.MustInsert(relation.Tuple{ID: relation.TupleID(id), Values: vals})
		}
		sys, _ := localSystem(t, rel, partition.IDHorizontal(3), rules, Options{DisableMD5: disableMD5})
		var updates relation.UpdateList
		for id, vals := range adds {
			if vals == nil {
				continue
			}
			updates = append(updates, relation.Update{
				Kind:  relation.Insert,
				Tuple: relation.Tuple{ID: relation.TupleID(id), Values: vals},
			})
		}
		// Delete t2 afterwards: its (aliased-under-the-bug) group must
		// not drag t1/t5 out of V.
		t2, _ := rel.Get(2)
		updates = append(updates, relation.Update{Kind: relation.Delete, Tuple: t2})

		if _, err := sys.Apply(updates); err != nil {
			t.Fatal(err)
		}
		updated := rel.Clone()
		if err := updates.Normalize().Apply(updated); err != nil {
			t.Fatal(err)
		}
		want := centralized.BruteForce(updated, rules)
		if !sys.Violations().Equal(want) {
			t.Fatalf("disableMD5=%v: incHor diverged on adversarial separators:\n got %v\nwant %v",
				disableMD5, sys.Violations(), want)
		}
		bat, err := sys.BatchDetect()
		if err != nil {
			t.Fatal(err)
		}
		if !bat.Equal(want) {
			t.Fatalf("disableMD5=%v: batHor diverged:\n got %v\nwant %v", disableMD5, bat, want)
		}
	}
}
