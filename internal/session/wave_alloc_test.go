//go:build !race

package session

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestVerticalWaveAllocBound guards the fixed cost of a vertical wave of
// one through a session, in the shape of the root package's
// BenchmarkUnitUpdateVertical: TPCH, 50 rules, 10 sites, the optimizer,
// one insertion per ApplyBatch, the generated tuple included. It measures
// 110: calls through typed method handles, which box neither request nor
// reply and leave a same-site call nothing to allocate, fan-outs that run
// inline on the caller (no call here can wait), the driver's wave
// scratch, an epoch publish that copies each trie node once and ∆V read
// off the sealed epoch rather than built beside V hold it there; calls
// that boxed both values as interfaces cost 188, building ∆V in a mark
// store of its own 195, a publish that re-copies its own path per flip
// 219, per-call goroutines and per-wave tables near 450.
// What is left is mostly the reply slices the sites allocate, the copies
// a metered call's sizing pass reads, and one closure per fan-out.
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
	const bound = 116
	if allocs > bound {
		t.Errorf("a vertical wave of one allocates %.1f objects per update, want ≤ %d", allocs, bound)
	}
}

// TestHorizontalWaveAllocBound guards the fixed cost of a horizontal wave
// of one through a session, in the shape of the root package's
// BenchmarkUnitUpdateHorizontal: TPCH, 50 rules, 10 hash sites on c_name,
// one insertion per ApplyBatch, the generated tuple included. It measures
// 40; calls that boxed request and reply as interfaces cost 42, fresh
// reply arrays per owner call and trie node copies with both their arrays
// and every posting 47, building ∆V in a mark store of
// its own beside V 53, an epoch publish that re-copies its own path per
// flip 78, owner settles sent for groups where nothing flips 4 more.
// What is left is the publish's one copy of each touched trie node with
// the array it edits, and the fan-out closures.
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
	const bound = 42
	if allocs > bound {
		t.Errorf("a horizontal wave of one allocates %.1f objects per update, want ≤ %d", allocs, bound)
	}
}

// TestHorizontalWaveBytesBound guards the bytes a horizontal wave of one
// allocates through a session, in TestHorizontalWaveAllocBound's shape:
// the count alone misses a reply or a trie copy that grows. It measures
// 10 157–10 170 bytes per update (runtime.MemStats.TotalAlloc), and the
// bound is that plus 10 %: the owner answers in arrays it keeps between
// calls, an epoch copy shares the trie arrays and posting chunks it does
// not change, and a call boxes neither request nor reply. Boxed calls
// cost 10 240–10 264; fresh reply arrays per call, trie node copies with
// both arrays and a copy of every posting 14 963.
func TestHorizontalWaveBytesBound(t *testing.T) {
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
	for i := 0; i < 1000; i++ {
		apply()
	}
	const runs = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		apply()
	}
	runtime.ReadMemStats(&after)
	perUpdate := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("horizontal wave of one: %.0f bytes allocated per update", perUpdate)
	const bound = 11180
	if perUpdate > bound {
		t.Errorf("a horizontal wave of one allocates %.0f bytes per update, want ≤ %d", perUpdate, bound)
	}
}
