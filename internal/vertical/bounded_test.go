package vertical

import (
	"testing"

	"repro/internal/cfd"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestBoundedShipment checks Proposition 6 empirically: for a fixed ∆D,
// the bytes and eqids shipped by incVer do not grow with |D|. The same
// generator pools and the same update batch are used at both database
// sizes, so the comparison is deterministic.
func TestBoundedShipment(t *testing.T) {
	type meas struct {
		bytes, eqids, msgs int64
	}
	var got [2]meas
	for k, dSize := range []int{800, 4000} {
		gen := workload.NewSized(workload.TPCH, 17, 6000)
		rules := gen.Rules(20)
		rel := gen.Relation(dSize)
		sys, _ := localSystem(t, rel, partition.RoundRobinVertical(gen.Schema(), 5), rules, false)
		// A fixed-size insert-only batch (deletions would reference
		// different tuples at different |D|).
		var updates relation.UpdateList
		for i := 0; i < 300; i++ {
			updates = append(updates, relation.Update{Kind: relation.Insert, Tuple: gen.Next()})
		}
		if _, err := sys.Apply(updates); err != nil {
			t.Fatal(err)
		}
		st := sys.Cluster().Stats()
		got[k] = meas{bytes: st.Bytes, eqids: st.Eqids, msgs: st.Messages}
	}
	// 5× the database, (almost) unchanged shipment. Allow 25% slack for
	// data-dependent branches (group states differ with |D|).
	if f := float64(got[1].bytes) / float64(got[0].bytes); f > 1.25 {
		t.Errorf("shipment grew %.2f× when |D| grew 5× (%d → %d bytes): not bounded",
			f, got[0].bytes, got[1].bytes)
	}
	if f := float64(got[1].eqids) / float64(got[0].eqids); f > 1.25 {
		t.Errorf("eqids grew %.2f× when |D| grew 5× (%d → %d): not bounded",
			f, got[0].eqids, got[1].eqids)
	}
}

// TestEqidsPerUpdateMatchesPlan: for insert-only batches where every
// tuple matches every variable rule's pattern, the measured eqids per
// update equal the plan's static Neqid (Fig. 10's metric).
func TestEqidsPerUpdateMatchesPlan(t *testing.T) {
	schema := relation.MustSchema("R", "A", "B", "C", "D")
	rules, err := parseRules(t)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := partition.NewVerticalScheme(schema, 4, map[string][]int{
		"A": {0}, "B": {1}, "C": {2}, "D": {3},
	})
	if err != nil {
		t.Fatal(err)
	}
	rel := relation.New(schema)
	sys, _ := localSystem(t, rel, scheme, rules, false)
	const n = 50
	var updates relation.UpdateList
	for i := 1; i <= n; i++ {
		updates = append(updates, relation.Update{Kind: relation.Insert, Tuple: relation.Tuple{
			ID:     relation.TupleID(i),
			Values: []string{value(i, 3), value(i, 5), value(i, 2), value(i, 7)},
		}})
	}
	if _, err := sys.Apply(updates); err != nil {
		t.Fatal(err)
	}
	wantPerUpdate := int64(sys.Plan().Neqid())
	if got := sys.Cluster().Stats().Eqids; got != wantPerUpdate*n {
		t.Errorf("shipped %d eqids for %d updates; plan says %d per update", got, n, wantPerUpdate)
	}
}

func parseRules(t *testing.T) ([]cfd.CFD, error) {
	t.Helper()
	return cfd.ParseAll(`
r1: ([A, B] -> [C], (_, _, _))
r2: ([A, C] -> [D], (_, _, _))
`)
}

func value(i, mod int) string {
	return string(rune('a' + i%mod))
}
