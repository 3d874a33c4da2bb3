//go:build !race

package vertical

import (
	"testing"

	"repro/internal/network"
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
