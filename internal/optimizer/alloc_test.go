//go:build !race

package optimizer

import (
	"testing"

	"repro/internal/workload"
)

// TestOptimizeAllocBound pins the compiled search's allocation diet on
// the input a benchmark vertical session plans (TPCH, 50 rules, four
// round-robin sites): at most 150 000 allocations per Optimize, where
// building a string-keyed plan for every evaluated selection cost 4.73 M.
func TestOptimizeAllocBound(t *testing.T) {
	in := workloadInput(workload.TPCH, 50, 4)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Optimize(in, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 150_000 {
		t.Errorf("Optimize allocates %.0f times per call, bound 150 000", allocs)
	}
	t.Logf("%.0f allocations per Optimize", allocs)
}
