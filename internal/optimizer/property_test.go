package optimizer

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomInput builds a random planning problem: attributes spread over
// sites (some replicated), rules with 1–4 LHS attributes.
func randomInput(seed int64) Input {
	rng := rand.New(rand.NewSource(seed))
	numSites := 2 + rng.Intn(6)
	numAttrs := 4 + rng.Intn(8)
	attrs := make([]string, numAttrs)
	attrSites := make(map[string][]int, numAttrs)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%02d", i)
		sites := []int{rng.Intn(numSites)}
		if rng.Float64() < 0.2 { // replicate ~20% of attributes
			other := rng.Intn(numSites)
			if other != sites[0] {
				sites = append(sites, other)
			}
		}
		attrSites[attrs[i]] = sites
	}
	numRules := 1 + rng.Intn(8)
	rules := make([]RuleSpec, 0, numRules)
	for r := 0; r < numRules; r++ {
		perm := rng.Perm(numAttrs)
		k := 1 + rng.Intn(4)
		if k >= numAttrs {
			k = numAttrs - 1
		}
		lhs := make([]string, 0, k)
		for _, idx := range perm[:k] {
			lhs = append(lhs, attrs[idx])
		}
		rules = append(rules, RuleSpec{
			ID:  fmt.Sprintf("r%02d", r),
			LHS: lhs,
			RHS: attrs[perm[k]],
		})
	}
	in := Input{NumSites: numSites, AttrSites: attrSites, Rules: rules}
	// Normalize sites lists sorted as NewVerticalScheme would.
	for a := range in.AttrSites {
		s := in.AttrSites[a]
		if len(s) == 2 && s[0] > s[1] {
			s[0], s[1] = s[1], s[0]
		}
	}
	return in
}

// Property: on arbitrary topologies, optVer always produces an executable
// plan whose every rule is bound, and never ships more eqids than the
// naive per-rule chains.
func TestOptimizeAlwaysExecutableAndNoWorse(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInput(seed)
		naive, err := NaiveChainPlan(in)
		if err != nil {
			return false
		}
		opt, err := Optimize(in, 4)
		if err != nil {
			return false
		}
		if len(opt.Bindings) != len(in.Rules) {
			return false
		}
		for _, r := range in.Rules {
			b, ok := opt.Bindings[r.ID]
			if !ok {
				return false
			}
			// The X node must cover exactly the rule's LHS set.
			if !slices.Equal(opt.Nodes[b.XNode].Attrs, sortedNames(r.LHS)) {
				return false
			}
			// Every composed node's inputs must union to its attrs.
			for _, n := range opt.Nodes {
				if n.Kind != Composed {
					continue
				}
				covered := make(map[string]bool)
				for _, inID := range n.Inputs {
					for _, a := range opt.Nodes[inID].Attrs {
						covered[a] = true
					}
				}
				if len(covered) != len(n.Attrs) {
					return false
				}
				for _, a := range n.Attrs {
					if !covered[a] {
						return false
					}
				}
			}
		}
		return opt.Neqid() <= naive.Neqid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: base nodes live only at sites that actually hold the
// attribute (replication-aware placement).
func TestBaseNodesRespectReplicaSites(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInput(seed)
		for _, plan := range plansOf(t, in) {
			for _, n := range plan.Nodes {
				if n.Kind != Base {
					continue
				}
				ok := false
				for _, s := range in.AttrSites[n.Attrs[0]] {
					if s == n.Site {
						ok = true
					}
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func plansOf(t *testing.T, in Input) []*Plan {
	t.Helper()
	naive, err := NaiveChainPlan(in)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []*Plan{naive, opt}
}

func TestRuleNodesTopoOrder(t *testing.T) {
	in := example7(true)
	plan, err := Optimize(in, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range in.Rules {
		order := plan.RuleNodes(r.ID)
		pos := make(map[NodeID]int, len(order))
		for i, id := range order {
			pos[id] = i
		}
		for _, id := range order {
			for _, input := range plan.Nodes[id].Inputs {
				if pos[input] >= pos[id] {
					t.Errorf("rule %s: input %d not before consumer %d", r.ID, input, id)
				}
			}
		}
	}
}

func TestConsumersNeverSelfDeliver(t *testing.T) {
	plan, err := Optimize(example7(true), 5)
	if err != nil {
		t.Fatal(err)
	}
	for node, sites := range plan.Consumers() {
		for _, s := range sites {
			if s == plan.Nodes[node].Site {
				t.Errorf("node %d delivers to its own site", node)
			}
		}
	}
}

// stagesSound checks the contract the vertical stage runner relies on:
// every input of a node is in an earlier stage, or in the same stage at
// the same site under a lower id; and no stage exceeds the node's depth
// in the DAG (its longest input chain).
func stagesSound(p *Plan) error {
	stages := p.Stages()
	if len(stages) != len(p.Nodes) {
		return fmt.Errorf("%d stages for %d nodes", len(stages), len(p.Nodes))
	}
	depth := make([]int, len(p.Nodes))
	for _, n := range p.Nodes {
		for _, in := range n.Inputs {
			depth[n.ID] = max(depth[n.ID], depth[in]+1)
			sameCall := stages[in] == stages[n.ID] && p.Nodes[in].Site == n.Site && in < n.ID
			if stages[in] > stages[n.ID] || (stages[in] == stages[n.ID] && !sameCall) {
				return fmt.Errorf("node %d (stage %d, site %d) has input %d (stage %d, site %d)",
					n.ID, stages[n.ID], n.Site, in, stages[in], p.Nodes[in].Site)
			}
		}
		if stages[n.ID] > depth[n.ID] {
			return fmt.Errorf("node %d: stage %d exceeds depth %d", n.ID, stages[n.ID], depth[n.ID])
		}
	}
	return nil
}

// Property: Stages is sound for optVer plans, naive chains, and plans
// after live rule management — a graft extends the cached stages to the
// new nodes, a drop leaves them alone.
func TestStagesSound(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInput(seed)
		naive, err := NaiveChainPlan(in)
		if err != nil {
			return false
		}
		opt, err := Optimize(in, 4)
		if err != nil {
			return false
		}
		for _, p := range []*Plan{naive, opt} {
			if err := stagesSound(p); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			before := append([]int(nil), p.Stages()...)
			// Graft the same rules' chains again under fresh ids.
			more := Input{NumSites: in.NumSites, AttrSites: in.AttrSites}
			for i, r := range in.Rules {
				more.Rules = append(more.Rules, RuleSpec{ID: fmt.Sprintf("g%02d", i), LHS: r.LHS, RHS: r.RHS})
			}
			sub, err := NaiveChainPlan(more)
			if err != nil {
				return false
			}
			p.Graft(sub)
			p.DropRule(in.Rules[0].ID)
			if err := stagesSound(p); err != nil {
				t.Logf("seed %d after graft+drop: %v", seed, err)
				return false
			}
			for id, s := range before {
				if p.Stages()[id] != s {
					t.Logf("seed %d: graft moved node %d from stage %d to %d", seed, id, s, p.Stages()[id])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
