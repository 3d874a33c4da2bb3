package optimizer

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
)

// NaiveChainPlan is the baseline of §4 with no cross-CFD sharing
// (Fig. 6(a)): for each rule, HEVs for the LHS prefixes {x1}, {x1,x2}, …
// in author order, with the HEV for prefix i placed at a site holding the
// newly added attribute x_i. Identical prefix attribute sets reuse the
// same node (eqids arriving at a site are shared, exactly as the paper's
// example notes for t[A] at S3).
func NaiveChainPlan(in Input) (*Plan, error) {
	p := &Plan{Bindings: make(map[string]RuleBinding), edges: make(map[edge]struct{})}
	names, ids := attrIDs(in.Rules)
	bases := make(map[[2]int]NodeID)    // (attribute, site) → base node
	prefixes := make(map[string]NodeID) // prefix attribute set → composed node

	baseNode := func(a, prefSite int) (NodeID, error) {
		sites := in.AttrSites[names[a]]
		if len(sites) == 0 {
			return 0, fmt.Errorf("optimizer: attribute %q assigned to no site", names[a])
		}
		site := sites[0]
		if slices.Contains(sites, prefSite) {
			site = prefSite
		}
		if id, ok := bases[[2]int{a, site}]; ok {
			return id, nil
		}
		id := NodeID(len(p.Nodes))
		p.Nodes = append(p.Nodes, Node{ID: id, Kind: Base, Attrs: []string{names[a]}, Site: site})
		bases[[2]int{a, site}] = id
		return id, nil
	}

	rules := append([]RuleSpec(nil), in.Rules...)
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })

	for _, r := range rules {
		if len(r.LHS) == 0 {
			return nil, fmt.Errorf("optimizer: rule %s has empty LHS", r.ID)
		}
		prev, err := baseNode(ids[r.LHS[0]], -1)
		if err != nil {
			return nil, err
		}
		prefix := newAttrSet(len(names))
		prefix.add(ids[r.LHS[0]])
		for i := 1; i < len(r.LHS); i++ {
			attr := r.LHS[i]
			prefix.add(ids[attr])
			sites := in.AttrSites[attr]
			if len(sites) == 0 {
				return nil, fmt.Errorf("optimizer: attribute %q assigned to no site", attr)
			}
			site := sites[0]
			key := prefix.key()
			if id, ok := prefixes[key]; ok {
				prev = id
				continue
			}
			ab, err := baseNode(ids[attr], site)
			if err != nil {
				return nil, err
			}
			id := NodeID(len(p.Nodes))
			n := Node{ID: id, Kind: Composed, Site: site, Inputs: []NodeID{prev, ab}}
			for _, a := range prefix.ids(nil) {
				n.Attrs = append(n.Attrs, names[a])
			}
			p.Nodes = append(p.Nodes, n)
			prefixes[key] = id
			for _, inID := range n.Inputs {
				if p.Nodes[inID].Site != site {
					p.edges[edge{src: inID, dest: site}] = struct{}{}
				}
			}
			prev = id
		}
		idxSite := p.Nodes[prev].Site
		bNode, err := baseNode(ids[r.RHS], idxSite)
		if err != nil {
			return nil, err
		}
		if p.Nodes[bNode].Site != idxSite {
			p.edges[edge{src: bNode, dest: idxSite}] = struct{}{}
		}
		p.Bindings[r.ID] = RuleBinding{RuleID: r.ID, XNode: prev, BNode: bNode, IDXSite: idxSite}
	}
	return p, nil
}

// evalBudget bounds the number of selections a single Optimize call may
// evaluate in its beam search. The initial shipment-aware greedy
// construction already captures most of the benefit; the search is
// refinement, and optVer only runs once per (database, partition, Σ)
// configuration, never per update.
const evalBudget = 4000

// Optimize is optVer (Fig. 7): beam search of width k (5 when k ≤ 0) over
// candidate removals, keeping the cheapest executable plan found. k trades
// solution quality against planning time; the paper's experiments use
// small k. The naive per-rule chains are part of the considered space
// (they are the search's floor): optVer never returns a plan shipping
// more eqids than no sharing at all.
func Optimize(in Input, k int) (*Plan, error) {
	if k <= 0 {
		k = 5
	}
	sp, err := compile(in)
	if err != nil {
		return nil, err
	}
	e := sp.evaluator()
	full := bytes.Repeat([]byte{1}, len(sp.comp)+len(sp.base))
	bestCost, miss := e.run(full, nil)
	if miss >= 0 {
		return nil, fmt.Errorf("optimizer: initial candidate set not executable: attribute %s has no available base HEV site", sp.names[miss])
	}
	best := full
	naive, err := NaiveChainPlan(in)
	if err != nil || naive.Neqid() >= bestCost {
		naive = nil
	} else {
		bestCost = naive.Neqid()
	}

	type state struct {
		sel  []byte
		cost int
	}
	queue := []state{{sel: full}}
	visited := map[string]bool{string(full): true}
	child := make([]byte, len(full))
	evals := 0
	for len(queue) > 0 && evals < evalBudget {
		var next []state
		for _, st := range queue {
			for i := range st.sel {
				if st.sel[i] == 0 || sp.protected(i) {
					continue
				}
				copy(child, st.sel)
				child[i] = 0
				if visited[string(child)] {
					continue
				}
				visited[string(child)] = true
				evals++
				cost, miss := e.run(child, nil)
				if miss >= 0 {
					continue // not executable without this candidate
				}
				sel := slices.Clone(child)
				if cost < bestCost {
					bestCost, best, naive = cost, sel, nil
				}
				next = append(next, state{sel: sel, cost: cost})
				if evals >= evalBudget {
					break
				}
			}
			if evals >= evalBudget {
				break
			}
		}
		// Keep the k cheapest open states (deterministic ordering).
		slices.SortFunc(next, func(a, b state) int {
			if a.cost != b.cost {
				return a.cost - b.cost
			}
			return bytes.Compare(a.sel, b.sel)
		})
		if len(next) > k {
			next = next[:k]
		}
		queue = next
	}
	if naive != nil {
		return naive, nil
	}
	return e.materialize(best), nil
}

// ExhaustiveOptimal enumerates every subset of removable candidates and
// returns the cheapest executable plan. Exponential: refuse instances
// with more than maxFree removable candidates. Used as a test oracle for
// Theorem 7's NP-complete optimization problem.
func ExhaustiveOptimal(in Input, maxFree int) (*Plan, error) {
	sp, err := compile(in)
	if err != nil {
		return nil, err
	}
	sel := make([]byte, len(sp.comp)+len(sp.base))
	var free []int
	for i := range sel {
		if !sp.protected(i) {
			free = append(free, i)
		}
	}
	if len(free) > maxFree {
		return nil, fmt.Errorf("optimizer: %d removable candidates exceeds exhaustive limit %d", len(free), maxFree)
	}
	e := sp.evaluator()
	var best []byte
	bestCost := 0
	for mask := 0; mask < 1<<len(free); mask++ {
		for i := range sel {
			sel[i] = 1
		}
		for bi, ci := range free {
			if mask&(1<<bi) != 0 {
				sel[ci] = 0
			}
		}
		if cost, miss := e.run(sel, nil); miss < 0 && (best == nil || cost < bestCost) {
			best, bestCost = slices.Clone(sel), cost
		}
	}
	if best == nil {
		return nil, fmt.Errorf("optimizer: no executable plan found")
	}
	return e.materialize(best), nil
}
