package horizontal

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/partition"
	"repro/internal/relation"
)

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
	rules, err := cfd.ParseAll(`
phi1: ([CC, zip] -> [street], (44, _, _))
phi2: ([CC, AC] -> [city], (44, 131, EDI))
`)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// empScheme is the paper's horizontal partition: DH1 (grade A), DH2
// (grade B), DH3 (grade C).
func empScheme() *partition.HorizontalScheme {
	return partition.BySetHorizontal("grade", [][]string{{"A"}, {"B"}, {"C"}})
}

func t6() relation.Tuple {
	return relation.Tuple{ID: 6, Values: []string{
		"George", "M", "C", "Mayfield", "EDI", "EH4 8LE", "44", "131", "9595858", "120k", "01/07/1993"}}
}

func TestPaperExample2InsertHorizontal(t *testing.T) {
	rel := empData(t)
	rules := empRules(t)
	sys, _ := localSystem(t, rel, empScheme(), rules, Options{})
	want := centralized.Detect(rel, rules)
	if !sys.Violations().Equal(want) {
		t.Fatalf("initial V mismatch:\n got %v\nwant %v", sys.Violations(), want)
	}

	// Example 2(1)/Example 9: t6 lands at DH3 next to t5 (a known
	// violation); ∆V+ = {t6} with no data shipped at all.
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
	if stats := sys.Cluster().Stats(); stats.Messages != 0 {
		t.Errorf("t6 insert shipped %d messages, paper Example 2 says none are needed", stats.Messages)
	}
}

func TestPaperExample2DeleteHorizontal(t *testing.T) {
	rel := empData(t)
	rules := empRules(t)
	sys, _ := localSystem(t, rel, empScheme(), rules, Options{})
	if _, err := sys.Apply(relation.UpdateList{{Kind: relation.Insert, Tuple: t6()}}); err != nil {
		t.Fatal(err)
	}
	sys.Cluster().ResetStats()

	// Example 2(2): deleting t4 removes exactly {t4}, shipping nothing
	// (t3 shares t4's class at DH2).
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
	if stats := sys.Cluster().Stats(); stats.Messages != 0 {
		t.Errorf("t4 delete shipped %d messages, paper Example 2 says none are needed", stats.Messages)
	}
}

func TestBatchDetectMatchesOracleHorizontal(t *testing.T) {
	rel := empData(t)
	rules := empRules(t)
	sys, _ := localSystem(t, rel, empScheme(), rules, Options{})
	got, err := sys.BatchDetect()
	if err != nil {
		t.Fatal(err)
	}
	want := centralized.Detect(rel, rules)
	if !got.Equal(want) {
		t.Errorf("batHor mismatch:\n got %v\nwant %v", got, want)
	}
}

func runRandomCase(t *testing.T, seed int64, schemeKind int, disableMD5 bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	attrs := []string{"A", "B", "C", "D", "E", "F"}
	schema := relation.MustSchema("R", attrs...)
	domains := make(map[string][]string)
	for _, a := range attrs {
		n := 2 + rng.Intn(3)
		d := make([]string, n)
		for i := range d {
			d[i] = fmt.Sprintf("%s%d", a, i)
		}
		domains[a] = d
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
	var scheme *partition.HorizontalScheme
	switch schemeKind {
	case 0:
		scheme = partition.IDHorizontal(numSites)
	case 1:
		scheme = partition.HashHorizontal("B", numSites) // B ∈ LHS of r1, r2: partially local-checkable
	default:
		// Explicit sets over A: makes r3 locally checkable, and some
		// fragments excluded for rules with constants on A.
		sets := make([][]string, len(domains["A"]))
		for i, v := range domains["A"] {
			sets[i] = []string{v}
		}
		scheme = partition.BySetHorizontal("A", sets)
	}

	sys, _ := localSystem(t, rel, scheme, rules, Options{DisableMD5: disableMD5})
	if want := centralized.Detect(rel, rules); !sys.Violations().Equal(want) {
		t.Fatalf("seed %d: initial V mismatch:\n got %v\nwant %v", seed, sys.Violations(), want)
	}

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
			var tup relation.Tuple
			if told, ok := rel.Get(id); ok {
				tup = told
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
		t.Fatalf("seed %d (scheme %d): incremental V diverged:\n got %v\nwant %v\nupdates %v",
			seed, schemeKind, sys.Violations(), want, updates)
	}
	if got, w := delta.String(), cfd.DeltaBetween(centralized.Detect(rel, rules), want).String(); got != w {
		t.Fatalf("seed %d: ∆V = %s, want the change V(D) → V(D⊕∆D) %s", seed, got, w)
	}
	bat, err := sys.BatchDetect()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if !bat.Equal(want) {
		t.Fatalf("seed %d: batHor diverged:\n got %v\nwant %v", seed, bat, want)
	}
}

func TestRandomizedAgainstOracleHorizontal(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for kind := 0; kind < 3; kind++ {
			runRandomCase(t, seed, kind, false)
		}
	}
}

func TestRandomizedAgainstOracleHorizontalRawCoding(t *testing.T) {
	for seed := int64(201); seed <= 210; seed++ {
		runRandomCase(t, seed, 0, true)
	}
}
