package optimizer

import (
	"slices"
	"testing"

	"repro/internal/workload"
)

// example7 builds the topology of the paper's Example 7: relation
// Re(A..K) over 8 sites — S1(A), S2(B), S3(C), S4(D), S5(E,F), S6(G,H),
// S7(I), S8(J,K) — with CFDs ϕ1: ABC→E, ϕ2: ACD→F, ϕ3: AG→H, ϕ4: AIJ→K.
// Sites here are 0-indexed.
func example7(replicateI bool) Input {
	attrSites := map[string][]int{
		"A": {0}, "B": {1}, "C": {2}, "D": {3},
		"E": {4}, "F": {4}, "G": {5}, "H": {5},
		"I": {6}, "J": {7}, "K": {7},
	}
	if replicateI {
		attrSites["I"] = []int{5, 6}
	}
	return Input{
		NumSites:  8,
		AttrSites: attrSites,
		Rules: []RuleSpec{
			{ID: "phi1", LHS: []string{"A", "B", "C"}, RHS: "E"},
			{ID: "phi2", LHS: []string{"A", "C", "D"}, RHS: "F"},
			{ID: "phi3", LHS: []string{"A", "G"}, RHS: "H"},
			{ID: "phi4", LHS: []string{"A", "I", "J"}, RHS: "K"},
		},
	}
}

func TestNaiveChainPlanExample7NoReplication(t *testing.T) {
	p, err := NaiveChainPlan(example7(false))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Neqid(); got != 9 {
		t.Errorf("Fig 6(a): naive plan ships %d eqids, paper reports 9\n%s", got, p.Describe())
	}
}

func TestNaiveChainPlanExample7WithReplication(t *testing.T) {
	p, err := NaiveChainPlan(example7(true))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Neqid(); got != 8 {
		t.Errorf("Fig 6(b): naive plan with replica ships %d eqids, paper reports 8\n%s", got, p.Describe())
	}
}

func TestOptimizeExample7WithReplication(t *testing.T) {
	p, err := Optimize(example7(true), 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Neqid(); got != 7 {
		t.Errorf("Fig 6(c): optVer ships %d eqids, paper reports 7\n%s", got, p.Describe())
	}
}

func TestOptimizeNeverWorseThanNaive(t *testing.T) {
	for _, repl := range []bool{false, true} {
		in := example7(repl)
		naive, err := NaiveChainPlan(in)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Optimize(in, 5)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Neqid() > naive.Neqid() {
			t.Errorf("replication=%v: optVer %d eqids > naive %d", repl, opt.Neqid(), naive.Neqid())
		}
	}
}

func TestOptimizeMatchesExhaustiveOnTinyInstance(t *testing.T) {
	in := Input{
		NumSites: 3,
		AttrSites: map[string][]int{
			"A": {0}, "B": {1}, "C": {2}, "D": {1},
		},
		Rules: []RuleSpec{
			{ID: "r1", LHS: []string{"A", "B"}, RHS: "C"},
			{ID: "r2", LHS: []string{"A", "B", "C"}, RHS: "D"},
		},
	}
	opt, err := Optimize(in, 8)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExhaustiveOptimal(in, 18)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Neqid() > exact.Neqid() {
		t.Errorf("optVer %d eqids, exhaustive optimum %d\noptVer:\n%s\nexact:\n%s",
			opt.Neqid(), exact.Neqid(), opt.Describe(), exact.Describe())
	}
	if opt.Neqid() < exact.Neqid() {
		t.Errorf("optVer %d beat 'exhaustive' %d: exhaustive search is broken", opt.Neqid(), exact.Neqid())
	}
}

func sortedNames(attrs []string) []string {
	s := slices.Clone(attrs)
	slices.Sort(s)
	return s
}

// TestSeparatorInAttributeNames: attribute names are opaque. With an
// attribute named "A\x1fB" beside A and B, {A\x1fB, C} and {A, B, C}
// are different sets, so no planner may bind both rules to one X node.
func TestSeparatorInAttributeNames(t *testing.T) {
	in := Input{
		NumSites: 3,
		AttrSites: map[string][]int{
			"A": {0}, "B": {1}, "C": {2}, "A\x1fB": {0}, "D": {1}, "E": {2},
		},
		Rules: []RuleSpec{
			{ID: "r1", LHS: []string{"A\x1fB", "C"}, RHS: "D"},
			{ID: "r2", LHS: []string{"A", "B", "C"}, RHS: "E"},
		},
	}
	for _, pl := range goldenPlanners {
		p, err := pl.plan(in)
		if err != nil {
			t.Fatalf("%s: %v", pl.name, err)
		}
		for _, r := range in.Rules {
			if got := p.Nodes[p.Bindings[r.ID].XNode].Attrs; !slices.Equal(got, sortedNames(r.LHS)) {
				t.Errorf("%s: rule %s binds X node %q, want %q\n%s", pl.name, r.ID, got, sortedNames(r.LHS), p.Describe())
			}
		}
	}
}

// BenchmarkOptimize plans the input a benchmark vertical session opens
// with: TPCH, 50 rules (46 variable), four round-robin sites.
func BenchmarkOptimize(b *testing.B) {
	in := workloadInput(workload.TPCH, 50, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(in, 0); err != nil {
			b.Fatal(err)
		}
	}
}
