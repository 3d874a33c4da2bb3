package horizontal

import (
	"slices"
	"testing"

	"repro/internal/centralized"
	"repro/internal/partition"
	"repro/internal/workload"
)

// TestRegisteredMethodsAreDriven: between them a seeded system, a
// NoIndexes one, a mixed batch that crosses sites, AddRules, RemoveRules
// and BatchDetect send every method site.register wires, and nothing
// else. A handler kept registered with no driver code behind it — or a
// call nothing handles — fails here.
func TestRegisteredMethodsAreDriven(t *testing.T) {
	const n = 4
	gen := workload.NewSized(workload.TPCH, 7, 3000)
	rules := gen.Rules(24)
	mirror := gen.Relation(300)
	scheme := partition.HashHorizontal("c_name", n)
	check := func(sys *System, step string) {
		t.Helper()
		want := centralized.Detect(mirror, sys.Rules())
		if !sys.Violations().Equal(want) {
			t.Fatalf("%s: V ≠ centralized Detect", step)
		}
	}

	bare, bareTr := hostedSystem(t, mirror, scheme, rules[:20], Options{NoIndexes: true})
	if v, err := bare.BatchDetect(); err != nil || !v.Equal(centralized.Detect(mirror, rules[:20])) {
		t.Fatalf("NoIndexes BatchDetect: equal to the oracle = false, err = %v", err)
	}

	sys, tr := hostedSystem(t, mirror, scheme, rules[:20], Options{})
	check(sys, "seed")
	batch := gen.Updates(mirror, 60, 0.6)
	if _, err := sys.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if err := batch.Apply(mirror); err != nil {
		t.Fatal(err)
	}
	check(sys, "batch")
	if _, err := sys.AddRules(rules[20:]); err != nil {
		t.Fatal(err)
	}
	check(sys, "AddRules")
	if _, err := sys.RemoveRules([]string{rules[0].ID, rules[21].ID}); err != nil {
		t.Fatal(err)
	}
	check(sys, "RemoveRules")

	var driven []string
	for _, call := range append(bareTr.recorded, tr.recorded...) {
		if !slices.Contains(driven, call.method) {
			driven = append(driven, call.method)
		}
	}
	slices.Sort(driven)
	if registered := sys.Cluster().Methods(0); !slices.Equal(driven, registered) {
		t.Errorf("methods sent ≠ methods registered\nsent:       %v\nregistered: %v", driven, registered)
	}
}
