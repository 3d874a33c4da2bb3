package vertical_test

import (
	"slices"
	"testing"

	"repro/internal/centralized"
	"repro/internal/partition"
	"repro/internal/vertical"
	"repro/internal/workload"
)

// TestNoIndexesSeedsInChunks: a NoIndexes system loads its fragments
// through the one seeding path — one v.batchFrag per site per 128-tuple
// chunk, ⌈|D|/128⌉ calls per site rather than |D|, and nothing else — and
// its BatchDetect equals the centralized oracle.
func TestNoIndexesSeedsInChunks(t *testing.T) {
	const n, rows = 4, 300
	gen := workload.NewSized(workload.TPCH, 3, 3000)
	rules := gen.Rules(12)
	rel := gen.Relation(rows)
	sys, tr := tcpSystemOpts(t, rel, partition.RoundRobinVertical(rel.Schema, n), rules, vertical.Options{NoIndexes: true})
	calls := tr.take()
	chunks := (rows + 127) / 128
	if got := calls["v.batchFrag"]; len(calls) != 1 || !slices.Equal(got, []int{chunks, chunks, chunks, chunks}) {
		t.Errorf("seeding calls = %v, want only v.batchFrag, %d per site", calls, chunks)
	}
	v, err := sys.BatchDetect()
	if err != nil {
		t.Fatal(err)
	}
	if want := centralized.Detect(rel, rules); !v.Equal(want) {
		t.Errorf("NoIndexes BatchDetect ≠ centralized Detect:\n got %v\nwant %v", v, want)
	}
}

// TestRegisteredMethodsAreDriven: between them a seeded system, a
// NoIndexes one, a mixed batch that crosses sites, AddRules, RemoveRules
// and BatchDetect send every method site.register wires, and nothing
// else. A handler kept registered with no driver code behind it — or a
// call nothing handles — fails here.
func TestRegisteredMethodsAreDriven(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 7, 3000)
	rules := gen.Rules(24)
	rel := gen.Relation(300)
	scheme := partition.RoundRobinVertical(rel.Schema, 4)
	sent := make(map[string]bool)
	record := func(tr *countingTransport) {
		for m := range tr.take() {
			sent[m] = true
		}
	}

	bare, bareTr := tcpSystemOpts(t, rel, scheme, rules[:20], vertical.Options{NoIndexes: true})
	if _, err := bare.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	record(bareTr)

	sys, tr := tcpSystem(t, rel, scheme, rules[:20])
	batch := gen.Updates(rel, 60, 0.6)
	if _, err := sys.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddRules(rules[20:]); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RemoveRules([]string{rules[0].ID, rules[21].ID}); err != nil {
		t.Fatal(err)
	}
	record(tr)
	if want := centralized.Detect(mirror(rel, batch), sys.Rules()); !sys.Violations().Equal(want) {
		t.Fatal("V ≠ centralized Detect after the scenario")
	}

	driven := make([]string, 0, len(sent))
	for m := range sent {
		driven = append(driven, m)
	}
	slices.Sort(driven)
	if registered := sys.Cluster().Methods(0); !slices.Equal(driven, registered) {
		t.Errorf("methods sent ≠ methods registered\nsent:       %v\nregistered: %v", driven, registered)
	}
}
