//go:build !race

package cfd

import (
	"testing"

	"repro/internal/relation"
)

// Allocation-regression guards for the compiled-rule and bitset-mark hot
// paths. (Excluded under -race: the race runtime adds allocations.)

func TestCompiledMatchZeroAllocs(t *testing.T) {
	s := relation.MustSchema("R", "a", "b", "c", "d")
	rules, err := ParseAll(`phi: ([a, b] -> [c], (44, _, EDI))`)
	if err != nil {
		t.Fatal(err)
	}
	comp := CompileAll(s, rules)
	match := relation.Tuple{ID: 1, Values: []string{"44", "w", "GLA", "z"}}
	miss := relation.Tuple{ID: 2, Values: []string{"45", "w", "EDI", "z"}}
	var sink bool
	allocs := testing.AllocsPerRun(1000, func() {
		sink = comp[0].MatchesLHS(match) || sink
		sink = comp[0].MatchesLHS(miss) || sink
		sink = comp[0].SingleViolation(match) || sink
		sink = comp[0].SingleViolation(miss) || sink
	})
	if allocs != 0 {
		t.Errorf("compiled match allocated %.1f objects per run, want 0", allocs)
	}
	_ = sink
}

func TestViolationsWarmMarkZeroAllocs(t *testing.T) {
	v := NewViolations()
	r1, r2 := v.Intern("phi1"), v.Intern("phi2")
	v.AddIdx(7, r1)
	allocs := testing.AllocsPerRun(1000, func() {
		// Re-marking an already-present tuple and toggling a second rule
		// bit are pure map writes on an existing key: no allocation.
		v.AddIdx(7, r1)
		v.AddIdx(7, r2)
		v.RemoveIdx(7, r2)
	})
	if allocs != 0 {
		t.Errorf("warm violation marks allocated %.1f objects per run, want 0", allocs)
	}
}
