package horizontal

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/centralized"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/workload"
)

// recordingTransport hosts every site on a cluster of its own — the
// daemon half of the deployment, in process — and records which methods
// the driver sends.
type recordingTransport struct {
	hosted *network.Cluster
	mu     sync.Mutex
	sent   map[string]bool
}

func (r *recordingTransport) Invoke(to network.SiteID, method string, data []byte) ([]byte, error) {
	r.mu.Lock()
	r.sent[method] = true
	r.mu.Unlock()
	return r.hosted.Dispatch(to, method, data)
}

func (r *recordingTransport) Close() error { return nil }

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

	sent := make(map[string]bool)
	open := func(opts Options) *System {
		t.Helper()
		tr := &recordingTransport{hosted: network.NewCluster(n), sent: sent}
		for i := 0; i < n; i++ {
			if err := HostSite(tr.hosted, network.SiteID(i), mirror.Schema, rules[:20]); err != nil {
				t.Fatal(err)
			}
		}
		opts.Transport = tr
		sys, err := NewSystem(mirror, scheme, rules[:20], opts)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	check := func(sys *System, step string) {
		t.Helper()
		want := centralized.Detect(mirror, sys.Rules())
		if !sys.Violations().Equal(want) {
			t.Fatalf("%s: V ≠ centralized Detect", step)
		}
	}

	bare := open(Options{NoIndexes: true})
	if v, err := bare.BatchDetect(); err != nil || !v.Equal(centralized.Detect(mirror, rules[:20])) {
		t.Fatalf("NoIndexes BatchDetect: equal to the oracle = false, err = %v", err)
	}

	sys := open(Options{})
	check(sys, "seed")
	batch := gen.Updates(mirror, 60, 0.6)
	if _, err := sys.ApplyBatch(batch); err != nil {
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

	driven := make([]string, 0, len(sent))
	for m := range sent {
		driven = append(driven, m)
	}
	slices.Sort(driven)
	if registered := sys.Cluster().Methods(0); !slices.Equal(driven, registered) {
		t.Errorf("methods sent ≠ methods registered\nsent:       %v\nregistered: %v", driven, registered)
	}
}
