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
// 47: the driver builds its requests and gathers its replies in the wave
// scratch, a site answers a small call in reply arrays it keeps, a round
// body is a static func over the System rather than a closure, a metered
// call is sized in a slot its handle keeps (an empty struct by a
// constant), calls through typed method handles box neither request nor
// reply, and fan-outs run inline on the caller (no call here can wait). Per-wave
// request and reply arrays, one closure per fan-out and the sizing
// pass's heap copies cost 110; calls that boxed both values as
// interfaces 188, building ∆V in a mark store of its own 195, a publish
// that re-copies its own path per flip 219, per-call goroutines and
// per-wave tables near 450. What is left is mostly the epoch publish's
// trie copies, the fragment projections the sites keep and the IDX
// entries a fresh tuple adds.
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
	const bound = 50
	if allocs > bound {
		t.Errorf("a vertical wave of one allocates %.1f objects per update, want ≤ %d", allocs, bound)
	}
}

// TestHorizontalWaveAllocBound guards the fixed cost of a horizontal wave
// of one through a session, in the shape of the root package's
// BenchmarkUnitUpdateHorizontal: TPCH, 50 rules, 10 hash sites on c_name,
// one insertion per ApplyBatch, the generated tuple included. It measures
// 36; fan-out closures and the heap copies a metered call's sizing pass
// read cost 40, calls that boxed request and reply as interfaces 42, fresh
// reply arrays per owner call and trie node copies with both their arrays
// and every posting 47, building ∆V in a mark store of
// its own beside V 53, an epoch publish that re-copies its own path per
// flip 78, owner settles sent for groups where nothing flips 4 more.
// What is left is mostly the publish's one copy of each touched trie node
// with the array it edits.
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
	const bound = 38
	if allocs > bound {
		t.Errorf("a horizontal wave of one allocates %.1f objects per update, want ≤ %d", allocs, bound)
	}
}

// TestHorizontalWaveBytesBound guards the bytes a horizontal wave of one
// allocates through a session, in TestHorizontalWaveAllocBound's shape:
// the count alone misses a reply or a trie copy that grows. It measures
// 9 965–9 995 bytes per update (runtime.MemStats.TotalAlloc), and the
// bound is that plus 10 %: the owner answers in arrays it keeps between
// calls, an epoch copy shares the trie arrays and posting chunks it does
// not change, a call boxes neither request nor reply nor allocates
// to size them, and no round builds a closure. Fan-out closures
// and sizing copies cost 10 157–10 182, boxed calls 10 240–10 264; fresh
// reply arrays per call, trie node copies with both arrays and a copy of
// every posting 14 963.
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
	const bound = 10990
	if perUpdate > bound {
		t.Errorf("a horizontal wave of one allocates %.0f bytes per update, want ≤ %d", perUpdate, bound)
	}
}

// TestVerticalWaveBytesBound guards the bytes a vertical wave of one
// allocates through a session, in TestVerticalWaveAllocBound's shape:
// the count alone misses a reply or a request table that grows. It
// measures 11 616–11 945 bytes per update (runtime.MemStats.TotalAlloc),
// and the bound is that plus 10 %: the driver's tables live in its wave
// scratch, a site answers a small call in reply arrays it keeps, and no
// round builds a closure or allocates to size a call. Fresh
// request and reply arrays per wave, fan-out closures and sizing copies
// cost 15 964–16 074.
func TestVerticalWaveBytesBound(t *testing.T) {
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
	t.Logf("vertical wave of one: %.0f bytes allocated per update", perUpdate)
	const bound = 13140
	if perUpdate > bound {
		t.Errorf("a vertical wave of one allocates %.0f bytes per update, want ≤ %d", perUpdate, bound)
	}
}
