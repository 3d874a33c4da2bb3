//go:build !race

package session

import (
	"context"
	"testing"

	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestVerticalWaveAllocBound guards the fixed cost of a vertical wave of
// one through a session, in the shape of the root package's
// BenchmarkUnitUpdateVertical: TPCH, 50 rules, 10 sites, the optimizer,
// one insertion per ApplyBatch, the generated tuple included. It measures
// 188: fan-outs that run inline on the caller (no call here can wait),
// the driver's wave scratch, an epoch publish that copies each trie node
// once and ∆V read off the sealed epoch rather than built beside V hold
// it there; building ∆V in a mark store of its own costs 195, a publish
// that re-copies its own path per flip 219, per-call goroutines and
// per-wave tables near 450.
// What is left is mostly the reply slices the sites allocate and one
// closure per fan-out.
func TestVerticalWaveAllocBound(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 42, 8000)
	rules := gen.Rules(50)
	rel := gen.Relation(4000)
	s, err := Open(rel, rules, WithVertical(partition.RoundRobinVertical(gen.Schema(), 10)), WithOptimizer())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	apply := func() {
		if _, err := s.ApplyBatch(ctx, relation.UpdateList{{Kind: relation.Insert, Tuple: gen.Next()}}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the schedule memo and the wave scratch; the in-process
	// fan-outs run inline, so there are no helpers to warm.
	for i := 0; i < 1000; i++ {
		apply()
	}
	allocs := testing.AllocsPerRun(2000, apply)
	t.Logf("vertical wave of one: %.1f allocations per update", allocs)
	const bound = 198
	if allocs > bound {
		t.Errorf("a vertical wave of one allocates %.1f objects per update, want ≤ %d", allocs, bound)
	}
}

// TestHorizontalWaveAllocBound guards the fixed cost of a horizontal wave
// of one through a session, in the shape of the root package's
// BenchmarkUnitUpdateHorizontal: TPCH, 50 rules, 10 hash sites on c_name,
// one insertion per ApplyBatch, the generated tuple included. It measures
// 47; building ∆V in a mark store of its own beside V costs 53, an epoch
// publish that re-copies its own path per flip 78, owner settles sent for
// groups where nothing flips 4 more. What is left
// is the publish's one copy of each touched trie node, the owner's reply
// and the fan-out closures.
func TestHorizontalWaveAllocBound(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 42, 8000)
	rules := gen.Rules(50)
	rel := gen.Relation(4000)
	s, err := Open(rel, rules, WithHorizontal(partition.HashHorizontal("c_name", 10)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	apply := func() {
		if _, err := s.ApplyBatch(ctx, relation.UpdateList{{Kind: relation.Insert, Tuple: gen.Next()}}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the wave scratch and the touch tables; the in-process fan-outs
	// run inline, so there are no helpers to warm.
	for i := 0; i < 1000; i++ {
		apply()
	}
	allocs := testing.AllocsPerRun(2000, apply)
	t.Logf("horizontal wave of one: %.1f allocations per update", allocs)
	const bound = 52
	if allocs > bound {
		t.Errorf("a horizontal wave of one allocates %.1f objects per update, want ≤ %d", allocs, bound)
	}
}
