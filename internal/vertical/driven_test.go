package vertical_test

import (
	"slices"
	"testing"

	"repro/internal/centralized"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/vertical"
	"repro/internal/wire/wiretest"
	"repro/internal/workload"
)

// TestSeedingRunsInChunks: a seeded system loads its fragments in
// 128-tuple chunks — one v.batchFrag per site per chunk, ⌈|D|/128⌉ calls
// per site rather than |D|, and fewer calls than tuples per site in all —
// and its V and BatchDetect both equal the centralized oracle.
func TestSeedingRunsInChunks(t *testing.T) {
	const n, rows = 4, 300
	gen := workload.NewSized(workload.TPCH, 3, 3000)
	rules := gen.Rules(12)
	rel := gen.Relation(rows)
	sys, tr := tcpSystem(t, rel, partition.RoundRobinVertical(rel.Schema, n), rules)
	calls := tr.take()
	chunks := (rows + 127) / 128
	if got := calls["v.batchFrag"]; !slices.Equal(got, []int{chunks, chunks, chunks, chunks}) {
		t.Errorf("seeding v.batchFrag calls = %v, want %d per site", got, chunks)
	}
	total := make([]int, n)
	for _, perSite := range calls {
		for i, c := range perSite {
			total[i] += c
		}
	}
	if slices.Max(total) >= rows {
		t.Errorf("seeding sent %v calls per site, not fewer than |D| = %d", total, rows)
	}
	want := centralized.Detect(rel, rules)
	if !sys.Violations().Equal(want) {
		t.Errorf("seeded V ≠ centralized Detect")
	}
	v, err := sys.BatchDetect()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(want) {
		t.Errorf("BatchDetect ≠ centralized Detect:\n got %v\nwant %v", v, want)
	}
}

// TestRegisteredMethodsAreDriven: between them seeding, a mixed batch
// that crosses sites, AddRules, RemoveRules and BatchDetect send every
// method site.register wires, and nothing else. A handler kept
// registered with no driver code behind it — or a call nothing handles —
// fails here.
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
	if _, err := sys.BatchDetect(); err != nil {
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
	// What the sites register, on a cluster of their own: the driver's
	// cluster reaches the daemons and registers nothing.
	reg := network.NewCluster(scheme.NumSites)
	for i := 0; i < scheme.NumSites; i++ {
		if _, err := vertical.HostSiteState(reg, network.SiteID(i), rel.Schema, scheme, sys.Plan(), nil); err != nil {
			t.Fatal(err)
		}
	}
	if registered := reg.Methods(0); !slices.Equal(driven, registered) {
		t.Errorf("methods sent ≠ methods registered\nsent:       %v\nregistered: %v", driven, registered)
	}
	wiretest.CheckHandles(t, reg, vertical.Handles)
}
