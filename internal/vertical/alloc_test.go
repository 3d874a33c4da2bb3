//go:build !race

package vertical

import (
	"testing"

	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/workload"
)

// Decoding a coalesced eqid shipment allocates its item slice once, not
// once per item: the cost of a wave's delivery stays O(1) allocations
// whatever the wave size.
func TestBatchDeliverDecodeAllocs(t *testing.T) {
	decodeAllocs := func(items int) float64 {
		req := batchDeliverReq{Items: make([]batchDeliverItem, items)}
		for i := range req.Items {
			req.Items[i] = batchDeliverItem{ID: int64(1000 + i), Node: i % 7, Eq: int64(i * 31)}
		}
		enc, err := network.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			var out batchDeliverReq
			if err := network.Unmarshal(enc, &out); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The target (it escapes into Unmarshal's any), the decoder state and
	// the backing array of Items.
	if got := decodeAllocs(64); got != 3 {
		t.Errorf("64-item batchDeliverReq decode: %v allocs, want 3", got)
	}
	if small, large := decodeAllocs(4), decodeAllocs(1024); small != large {
		t.Errorf("decode allocs grow with items: %v for 4, %v for 1024", small, large)
	}
}

// TestWaveAllocBound pins the allocation diet of the same-site phases: a
// 64-update wave over in-process sites (no encoding: what is counted is
// the driver's request building, the handlers and the replies) stays
// under a committed number of allocations per update: 17.6 measured, 44.4
// when every (tuple, rule) and (tuple, node) pair was a struct of its own.
func TestWaveAllocBound(t *testing.T) {
	const batch, rounds, bound = 64, 20, 24
	gen := workload.NewSized(workload.TPCH, 5, 2000)
	rel := gen.Relation(400)
	sys, err := NewSystem(rel, partition.RoundRobinVertical(rel.Schema, 4), gen.Rules(50), Options{UseOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	mirror := rel.Clone()
	batches := make([]relation.UpdateList, rounds+4)
	for i := range batches {
		batches[i] = gen.Updates(mirror, batch, 0.5)
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
	for next < 3 { // pools and memoized schedules fill
		apply()
	}
	perUpdate := testing.AllocsPerRun(rounds, apply) / batch
	t.Logf("%.1f allocations per update", perUpdate)
	if perUpdate > bound {
		t.Errorf("a %d-update wave allocates %.1f times per update, bound %d", batch, perUpdate, bound)
	}
}
