//go:build !race

package wire

import "testing"

// Decoding a []int64 field costs one allocation, its backing array,
// whatever the length: nothing per element, nothing for the slice header.
func TestInt64ColumnDecodesInOneAllocation(t *testing.T) {
	type cols struct {
		Gen uint32
		IDs []int64
	}
	allocs := func(n int) float64 {
		enc, err := Marshal(cols{Gen: 7, IDs: make([]int64, n)})
		if err != nil {
			t.Fatal(err)
		}
		var out cols
		return testing.AllocsPerRun(200, func() {
			if err := Unmarshal(enc, &out); err != nil {
				t.Fatal(err)
			}
		})
	}
	none := allocs(0) // the column decodes to nil: what Unmarshal itself costs
	for _, n := range []int{1, 64, 4096} {
		if got := allocs(n) - none; got != 1 {
			t.Errorf("%d-element column: %v allocations beyond an empty one, want 1", n, got)
		}
	}
}

// Encoding a message of scalar columns into a buffer that fits allocates
// nothing: no boxed slice header, no per-element reflect.Value.
func TestColumnEncodeAllocatesNothing(t *testing.T) {
	type cols struct {
		IDs   []int64
		Bits  []uint64
		Nodes []int
		Flags []bool
		Names []string
	}
	v := cols{IDs: make([]int64, 64), Bits: []uint64{1, 2}, Nodes: []int{3}, Flags: []bool{true}, Names: []string{"r"}}
	buf := make([]byte, 0, 1024)
	for name, arg := range map[string]any{"value": v, "pointer": &v} {
		if got := testing.AllocsPerRun(200, func() {
			if _, err := Append(buf, arg); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("Append of a %s: %v allocations, want 0", name, got)
		}
	}
}
