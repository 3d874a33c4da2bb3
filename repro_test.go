package repro

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sitehost"
	"repro/internal/workload"
)

// TestPublicAPIEndToEnd drives the whole system through the public façade
// only: generate, partition both ways, detect, update, and cross-check
// against the centralized detector.
func TestPublicAPIEndToEnd(t *testing.T) {
	gen := NewGenerator(TPCH, 21, 4000)
	rules := gen.Rules(20)
	rel := gen.Relation(1500)
	updates := gen.Updates(rel, 400, 0.75)

	updated := rel.Clone()
	if err := updates.Normalize().Apply(updated); err != nil {
		t.Fatal(err)
	}
	want := DetectCentralized(updated, rules)

	vsess, err := Open(rel, rules, WithVertical(RoundRobinVertical(gen.Schema(), 6)), WithOptimizer())
	if err != nil {
		t.Fatal(err)
	}
	defer vsess.Close()
	hsess, err := Open(rel, rules, WithHorizontal(HashHorizontal("c_name", 6)))
	if err != nil {
		t.Fatal(err)
	}
	defer hsess.Close()
	for _, sess := range []*Session{vsess, hsess} {
		if _, err := sess.ApplyBatch(context.Background(), updates); err != nil {
			t.Fatal(err)
		}
		if !sess.Violations().Equal(want) {
			t.Errorf("%v incremental state diverged from oracle", sess.Kind())
		}
		// Both engines satisfy the common Detector interface.
		var d Detector = sess.Detector()
		v, err := d.BatchDetect()
		if err != nil {
			t.Fatal(err)
		}
		if !v.Equal(want) {
			t.Errorf("%v batch recomputation diverged from oracle", sess.Kind())
		}
	}
}

// TestVerticalTCP drives the vertical engine through the public façade
// with every site behind a real socket (in-process site daemons) and
// checks the result against the centralized oracle.
func TestVerticalTCP(t *testing.T) {
	gen := NewGenerator(DBLP, 13, 1500)
	rules := gen.Rules(8)
	rel := gen.Relation(400)
	updates := gen.Updates(rel, 100, 0.8)

	addrs := make([]string, 4)
	for i := range addrs {
		srv, err := sitehost.Serve(sitehost.NewHost(), "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	sess, err := Open(rel, rules, WithVertical(RoundRobinVertical(gen.Schema(), 4)), WithTCPSites(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.ApplyBatch(context.Background(), updates); err != nil {
		t.Fatal(err)
	}

	updated := rel.Clone()
	if err := updates.Normalize().Apply(updated); err != nil {
		t.Fatal(err)
	}
	if want := DetectCentralized(updated, rules); !sess.Violations().Equal(want) {
		t.Error("vertical-over-TCP diverged from oracle")
	}
	if sess.Stats().Messages == 0 {
		t.Error("no messages metered over TCP")
	}
}

func TestParseRulesFacade(t *testing.T) {
	rules, err := ParseRules(`phi: ([a, b] -> [c], (_, 1, _))`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || rules[0].ID != "phi" {
		t.Errorf("parsed %v", rules)
	}
	if _, err := ParseRules("garbage"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestCSVFacade(t *testing.T) {
	gen := NewGenerator(DBLP, 1, 1200)
	rel := gen.Relation(50)
	var sb strings.Builder
	if err := WriteRelationCSV(&sb, rel); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRelationCSV(strings.NewReader(sb.String()), rel.Schema.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(rel) {
		t.Error("CSV round trip failed")
	}
	_ = workload.TPCH // document that generators are also reachable internally
}
