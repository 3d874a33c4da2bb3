package vertical

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/optimizer"
	"repro/internal/partition"
	"repro/internal/relation"
)

// empSchema and empData reproduce the paper's Fig. 2 EMP relation.
func empSchema() *relation.Schema {
	return relation.MustSchema("EMP",
		"name", "sex", "grade", "street", "city", "zip", "CC", "AC", "phn", "salary", "hd")
}

func empData(t *testing.T) *relation.Relation {
	t.Helper()
	rel := relation.New(empSchema())
	rows := [][]string{
		{"Mike", "M", "A", "Mayfield", "NYC", "EH4 8LE", "44", "131", "8693784", "65k", "01/10/2005"},
		{"Sam", "M", "A", "Preston", "EDI", "EH2 4HF", "44", "131", "8765432", "65k", "01/05/2009"},
		{"Molina", "F", "B", "Mayfield", "EDI", "EH4 8LE", "44", "131", "3456789", "80k", "01/03/2010"},
		{"Philip", "M", "B", "Mayfield", "EDI", "EH4 8LE", "44", "131", "2909209", "85k", "01/05/2010"},
		{"Adam", "M", "C", "Crichton", "EDI", "EH4 8LE", "44", "131", "7478626", "120k", "01/05/1995"},
	}
	for i, row := range rows {
		tp, err := relation.NewTuple(rel.Schema, relation.TupleID(i+1), row)
		if err != nil {
			t.Fatal(err)
		}
		rel.MustInsert(tp)
	}
	return rel
}

func empRules(t *testing.T) []cfd.CFD {
	t.Helper()
	text := `
phi1: ([CC, zip] -> [street], (44, _, _))
phi2: ([CC, AC] -> [city], (44, 131, EDI))
`
	rules, err := cfd.ParseAll(text)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// empScheme is the paper's vertical partition: DV1(name, sex, grade),
// DV2(street, city, zip), DV3(CC, AC, phn, salary, hd).
func empScheme(t *testing.T, s *relation.Schema) *partition.VerticalScheme {
	t.Helper()
	vs, err := partition.NewVerticalScheme(s, 3, map[string][]int{
		"name": {0}, "sex": {0}, "grade": {0},
		"street": {1}, "city": {1}, "zip": {1},
		"CC": {2}, "AC": {2}, "phn": {2}, "salary": {2}, "hd": {2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

func t6() relation.Tuple {
	return relation.Tuple{ID: 6, Values: []string{
		"George", "M", "C", "Mayfield", "EDI", "EH4 8LE", "44", "131", "9595858", "120k", "01/07/1993"}}
}

func TestPaperExample2Insert(t *testing.T) {
	rel := empData(t)
	rules := empRules(t)
	sys, _ := localSystem(t, rel, empScheme(t, rel.Schema), rules, false)

	// Initial violations (paper Fig. 1): t1, t3, t4, t5 violate phi1;
	// t1 violates phi2.
	want := centralized.Detect(rel, rules)
	if !sys.Violations().Equal(want) {
		t.Fatalf("initial V mismatch:\n got %v\nwant %v", sys.Violations(), want)
	}
	for _, id := range []relation.TupleID{1, 3, 4, 5} {
		if !sys.Violations().HasRule(id, "phi1") {
			t.Errorf("t%d should violate phi1", id)
		}
	}
	if !sys.Violations().HasRule(1, "phi2") {
		t.Errorf("t1 should violate phi2")
	}
	if sys.Violations().Len() != 4 {
		t.Errorf("initial |V| = %d, want 4", sys.Violations().Len())
	}

	// Example 2(1): inserting t6 adds exactly {t6} to V.
	delta, err := sys.Apply(relation.UpdateList{{Kind: relation.Insert, Tuple: t6()}})
	if err != nil {
		t.Fatal(err)
	}
	if got := delta.AddedTuples(); len(got) != 1 || got[0] != 6 {
		t.Errorf("∆V+ = %v, want [6]", got)
	}
	if got := delta.RemovedTuples(); len(got) != 0 {
		t.Errorf("∆V− = %v, want empty", got)
	}

	// Example 2(1)(b): a single eqid shipped for phi1.
	stats := sys.Cluster().Stats()
	if stats.Eqids != 1 {
		t.Errorf("eqids shipped for t6 insert = %d, want 1 (paper Example 2)", stats.Eqids)
	}
}

func TestPaperExample2Delete(t *testing.T) {
	rel := empData(t)
	rules := empRules(t)
	sys, _ := localSystem(t, rel, empScheme(t, rel.Schema), rules, false)
	// Insert t6 then delete t4, as in Example 2(2).
	if _, err := sys.Apply(relation.UpdateList{{Kind: relation.Insert, Tuple: t6()}}); err != nil {
		t.Fatal(err)
	}
	t4, _ := rel.Get(4)
	delta, err := sys.Apply(relation.UpdateList{{Kind: relation.Delete, Tuple: t4}})
	if err != nil {
		t.Fatal(err)
	}
	if got := delta.RemovedTuples(); len(got) != 1 || got[0] != 4 {
		t.Errorf("∆V− = %v, want [4]", got)
	}
	if got := delta.AddedTuples(); len(got) != 0 {
		t.Errorf("∆V+ = %v, want empty", got)
	}
}

func TestBatchDetectMatchesOracle(t *testing.T) {
	rel := empData(t)
	rules := empRules(t)
	sys, _ := localSystem(t, rel, empScheme(t, rel.Schema), rules, false)
	got, err := sys.BatchDetect()
	if err != nil {
		t.Fatal(err)
	}
	want := centralized.Detect(rel, rules)
	if !got.Equal(want) {
		t.Errorf("batVer mismatch:\n got %v\nwant %v", got, want)
	}
}

// randomCase builds a random database, rule set and update batch designed
// to exercise group collisions, and checks that the incremental system
// tracks the centralized oracle exactly.
func runRandomCase(t *testing.T, seed int64, useOptimizer bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	attrs := []string{"A", "B", "C", "D", "E", "F"}
	schema := relation.MustSchema("R", attrs...)
	domain := func(a string) []string {
		// Small domains force equivalence-class collisions.
		n := 2 + rng.Intn(3)
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", a, i)
		}
		return out
	}
	domains := make(map[string][]string)
	for _, a := range attrs {
		domains[a] = domain(a)
	}
	randTuple := func(id relation.TupleID) relation.Tuple {
		vals := make([]string, len(attrs))
		for i, a := range attrs {
			d := domains[a]
			vals[i] = d[rng.Intn(len(d))]
		}
		return relation.Tuple{ID: id, Values: vals}
	}

	rel := relation.New(schema)
	n := 20 + rng.Intn(30)
	for i := 1; i <= n; i++ {
		rel.MustInsert(randTuple(relation.TupleID(i)))
	}

	rules := []cfd.CFD{
		{ID: "r1", LHS: []string{"A", "B"}, RHS: "C", LHSPattern: []string{"_", "_"}, RHSPattern: "_"},
		{ID: "r2", LHS: []string{"B", "D"}, RHS: "E", LHSPattern: []string{domains["B"][0], "_"}, RHSPattern: "_"},
		{ID: "r3", LHS: []string{"A"}, RHS: "F", LHSPattern: []string{"_"}, RHSPattern: "_"},
		{ID: "r4", LHS: []string{"C", "D"}, RHS: "F", LHSPattern: []string{"_", domains["D"][0]}, RHSPattern: domains["F"][0]},
	}

	numSites := 2 + rng.Intn(3)
	scheme := partition.RoundRobinVertical(schema, numSites)

	sys, _ := localSystem(t, rel, scheme, rules, useOptimizer)
	if want := centralized.Detect(rel, rules); !sys.Violations().Equal(want) {
		t.Fatalf("seed %d: initial V mismatch:\n got %v\nwant %v", seed, sys.Violations(), want)
	}

	// Random update batch: ~60% inserts, ~40% deletes of live tuples.
	live := rel.IDs()
	nextID := rel.MaxID() + 1
	var updates relation.UpdateList
	steps := 10 + rng.Intn(25)
	for i := 0; i < steps; i++ {
		if rng.Float64() < 0.6 || len(live) == 0 {
			tp := randTuple(nextID)
			nextID++
			updates = append(updates, relation.Update{Kind: relation.Insert, Tuple: tp})
			live = append(live, tp.ID)
		} else {
			k := rng.Intn(len(live))
			id := live[k]
			live = append(live[:k], live[k+1:]...)
			// The driver ships deletions with their full tuple values, as
			// the paper's algorithms assume.
			var tup relation.Tuple
			if tOld, ok := rel.Get(id); ok {
				tup = tOld
			} else {
				for _, u := range updates {
					if u.Kind == relation.Insert && u.Tuple.ID == id {
						tup = u.Tuple
					}
				}
			}
			updates = append(updates, relation.Update{Kind: relation.Delete, Tuple: tup})
		}
	}

	delta, err := sys.Apply(updates)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}

	updated := rel.Clone()
	if err := updates.Normalize().Apply(updated); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	want := centralized.Detect(updated, rules)
	if !sys.Violations().Equal(want) {
		t.Fatalf("seed %d: incremental V diverged:\n got %v\nwant %v\nupdates %v",
			seed, sys.Violations(), want, updates)
	}

	// ∆V really is the difference of old and new V.
	if got, w := delta.String(), cfd.DeltaBetween(centralized.Detect(rel, rules), want).String(); got != w {
		t.Fatalf("seed %d: ∆V = %s, want the change V(D) → V(D⊕∆D) %s", seed, got, w)
	}

	// batVer over the updated fragments agrees too.
	bat, err := sys.BatchDetect()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if !bat.Equal(want) {
		t.Fatalf("seed %d: batVer diverged:\n got %v\nwant %v", seed, bat, want)
	}
}

func TestRandomizedAgainstOracle(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		runRandomCase(t, seed, false)
	}
}

func TestRandomizedAgainstOracleWithOptimizer(t *testing.T) {
	for seed := int64(101); seed <= 120; seed++ {
		runRandomCase(t, seed, true)
	}
}

// TestBatchResolveSameSiteChain: one v.batchResolve carrying a same-site
// chain — the base nodes A and B, then AB composed from them, all at
// site 0 — returns exactly the eqids that resolving the three nodes in
// three calls returns, flat in node order; tuples equal on (A, B) share
// AB's eqid and others do not.
func TestBatchResolveSameSiteChain(t *testing.T) {
	schema := relation.MustSchema("R", "A", "B", "C")
	scheme, err := partition.NewVerticalScheme(schema, 2, map[string][]int{"A": {0}, "B": {0}, "C": {1}})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := cfd.ParseAll(`r: ([A, B] -> [C], (_, _, _))`)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]string{{"x", "p", "1"}, {"x", "q", "2"}, {"x", "p", "3"}, {"y", "p", "4"}}
	all := []uint64{1<<len(rows) - 1} // every position: inserted, and a member of every node
	build := func() (*site, batchResolveReq) {
		sys, sites := localSystem(t, relation.New(schema), scheme, rules, false)
		s := sites[0].st
		req := batchResolveReq{Ins: all}
		for i, row := range rows {
			id := int64(i + 1)
			if err := s.apply(applyReq{Op: OpInsert, ID: id, Values: row[:2]}); err != nil {
				t.Fatal(err)
			}
			req.IDs = append(req.IDs, id)
		}
		for _, n := range sys.plan.Nodes {
			if n.Site == 0 {
				req.Nodes = append(req.Nodes, int(n.ID))
				req.Members = append(req.Members, all...)
			}
		}
		if len(req.Nodes) != 3 || sys.plan.Node(optimizer.NodeID(req.Nodes[2])).Kind != optimizer.Composed {
			t.Fatalf("fixture: site 0 hosts %d nodes, want A, B, AB:\n%s", len(req.Nodes), sys.plan.Describe())
		}
		return s, req
	}

	s, req := build()
	one, err := s.batchResolve(req)
	if err != nil {
		t.Fatal(err)
	}
	s, req = build()
	var stepwise []int64
	for k := range req.Nodes {
		step := req
		step.Nodes, step.Members = req.Nodes[k:k+1], req.Members[k:k+1]
		resp, err := s.batchResolve(step)
		if err != nil {
			t.Fatal(err)
		}
		stepwise = append(stepwise, resp.Eqs...)
	}
	if !slices.Equal(one.Eqs, stepwise) {
		t.Fatalf("one call returned %v, node-by-node calls %v", one.Eqs, stepwise)
	}
	ab := one.Eqs[2*len(rows):]
	if ab[0] != ab[2] || ab[0] == ab[1] || ab[0] == ab[3] || ab[1] == ab[3] {
		t.Errorf("AB eqids %v: want rows 1 and 3 equal, all others distinct", ab)
	}
}
