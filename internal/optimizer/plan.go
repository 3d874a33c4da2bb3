// Package optimizer implements §5 of the paper: deciding which HEV indices
// to build, where to place them, and how they feed each other, so that
// validating all CFDs for a unit update ships as few eqids as possible.
//
// The central object is the Plan: a DAG of base nodes (one attribute at one
// site) and HEV nodes (an attribute set at one site, composed from input
// nodes whose attribute sets union to it). The number of eqids shipped per
// unit update, Neqid, is the number of distinct (source node → destination
// site) cross-site edges — distinct because an eqid arriving at a site is
// shared by every consumer there ("this eqid is shipped only once").
//
// Three planners are provided:
//
//   - NaiveChainPlan: the per-CFD prefix chains of §4 with no sharing
//     (Fig. 6(a) of the paper);
//   - Optimize: the optVer beam-search heuristic (Fig. 7);
//   - ExhaustiveOptimal: brute force over candidate subsets, usable only
//     on tiny instances, kept as a test oracle for the NP-complete
//     minimum-eqid-shipment problem (Theorem 7).
package optimizer

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID indexes a node within a Plan.
type NodeID int

// NodeKind distinguishes base HEVs from composed HEVs.
type NodeKind int

const (
	// Base nodes map one attribute's values to eqids at one site.
	Base NodeKind = iota
	// Composed nodes implement eq(): input eqids to the eqid of the
	// attribute union.
	Composed
)

// Node is one HEV in the plan.
type Node struct {
	ID    NodeID
	Kind  NodeKind
	Attrs []string // sorted; len 1 for base nodes
	Site  int
	// Inputs are the nodes whose eqids feed this node (Composed only).
	// Their attribute sets union to Attrs.
	Inputs []NodeID
}

// RuleBinding says how one CFD uses the plan: the node producing eqid_X,
// the base node producing eqid_B, and the site holding the rule's IDX.
type RuleBinding struct {
	RuleID  string
	XNode   NodeID
	BNode   NodeID
	IDXSite int
}

// Plan is a complete HEV build plan for a rule set over a vertical
// partition.
type Plan struct {
	Nodes    []Node
	Bindings map[string]RuleBinding

	// edges is the deduplicated set of cross-site shipments
	// (source node → destination site) a unit update incurs.
	edges map[edge]struct{}

	// stages caches Stages(): a function of Nodes alone, extended when a
	// graft appends nodes (bindings, and so DropRule, never move it).
	stages []int
}

type edge struct {
	src  NodeID
	dest int
}

// Neqid returns the number of eqids shipped per unit update under this
// plan: the paper's objective function (Fig. 10 reports it directly).
func (p *Plan) Neqid() int { return len(p.edges) }

// Edges returns the cross-site shipments sorted for deterministic output.
func (p *Plan) Edges() []string {
	out := make([]string, 0, len(p.edges))
	for e := range p.edges {
		n := p.Nodes[e.src]
		out = append(out, fmt.Sprintf("%s@S%d→S%d", strings.Join(n.Attrs, ""), n.Site, e.dest))
	}
	sort.Strings(out)
	return out
}

// Node returns the node with the given id.
func (p *Plan) Node(id NodeID) Node { return p.Nodes[id] }

// Stages returns every node's cross-site stage, indexed by node id: 0 for
// a base node, and for a composed node the maximum over its inputs of the
// input's stage, plus one when that input lives at another site. Every
// input of a node is therefore either in an earlier stage (its eqid has
// been shipped by the time the node's stage starts) or in the same stage
// at the same site under a lower id (it resolves earlier in the same
// call), so a whole stage resolves in one round of one call per site, and
// a plan whose deepest stage is D needs D+1 rounds however many nodes it
// has. The slice is shared; callers must not modify it.
func (p *Plan) Stages() []int {
	for id := len(p.stages); id < len(p.Nodes); id++ {
		n, stage := p.Nodes[id], 0
		for _, in := range n.Inputs {
			s := p.stages[in]
			if p.Nodes[in].Site != n.Site {
				s++
			}
			stage = max(stage, s)
		}
		p.stages = append(p.stages, stage)
	}
	return p.stages
}

// Consumers returns, for every node, the set of sites that need its output
// eqid delivered (consumer HEV nodes at other sites plus IDX attachments).
// Same-site consumption needs no delivery.
func (p *Plan) Consumers() map[NodeID][]int {
	dests := make(map[NodeID]map[int]struct{})
	add := func(src NodeID, site int) {
		if p.Nodes[src].Site == site {
			return
		}
		m, ok := dests[src]
		if !ok {
			m = make(map[int]struct{})
			dests[src] = m
		}
		m[site] = struct{}{}
	}
	for _, n := range p.Nodes {
		for _, in := range n.Inputs {
			add(in, n.Site)
		}
	}
	for _, b := range p.Bindings {
		add(b.XNode, b.IDXSite)
		add(b.BNode, b.IDXSite)
	}
	out := make(map[NodeID][]int, len(dests))
	for src, m := range dests {
		sites := make([]int, 0, len(m))
		for s := range m {
			sites = append(sites, s)
		}
		sort.Ints(sites)
		out[src] = sites
	}
	return out
}

// RuleNodes returns the transitive node closure a rule needs, in
// topological (bottom-up) order.
func (p *Plan) RuleNodes(ruleID string) []NodeID {
	b, ok := p.Bindings[ruleID]
	if !ok {
		return nil
	}
	seen := make(map[NodeID]bool)
	var order []NodeID
	var visit func(NodeID)
	visit = func(id NodeID) {
		if seen[id] {
			return
		}
		seen[id] = true
		for _, in := range p.Nodes[id].Inputs {
			visit(in)
		}
		order = append(order, id)
	}
	visit(b.XNode)
	visit(b.BNode)
	return order
}

// Validate checks the structure every walk over a plan relies on: node i
// has id i, a base node names one attribute and takes no input, a
// composed node has inputs and they all precede it, and every binding
// points at nodes of the plan.
// Planners build nothing else; a plan decoded from a hello, an
// addRules call or a checkpoint is checked before anything indexes by it.
func (p *Plan) Validate() error {
	inPlan := func(id NodeID) bool { return id >= 0 && int(id) < len(p.Nodes) }
	for i, n := range p.Nodes {
		switch {
		case n.ID != NodeID(i):
			return fmt.Errorf("optimizer: node at position %d has id %d", i, n.ID)
		case n.Kind == Base && (len(n.Attrs) != 1 || len(n.Inputs) != 0):
			return fmt.Errorf("optimizer: base node %d has %d attributes and %d inputs", i, len(n.Attrs), len(n.Inputs))
		case n.Kind == Composed && len(n.Inputs) == 0:
			return fmt.Errorf("optimizer: composed node %d has no inputs", i)
		case n.Kind != Base && n.Kind != Composed:
			return fmt.Errorf("optimizer: node %d has unknown kind %d", i, n.Kind)
		}
		for _, in := range n.Inputs {
			if in < 0 || in >= n.ID {
				return fmt.Errorf("optimizer: node %d takes input %d, which does not precede it", i, in)
			}
		}
	}
	for id, b := range p.Bindings {
		if !inPlan(b.XNode) || !inPlan(b.BNode) {
			return fmt.Errorf("optimizer: rule %q binds nodes %d and %d of a %d-node plan", id, b.XNode, b.BNode, len(p.Nodes))
		}
	}
	return nil
}

// Describe renders the plan for humans: one line per node plus bindings.
func (p *Plan) Describe() string {
	var sb strings.Builder
	for _, n := range p.Nodes {
		if n.Kind == Base {
			fmt.Fprintf(&sb, "  base  H[%s] @S%d\n", n.Attrs[0], n.Site)
			continue
		}
		ins := make([]string, len(n.Inputs))
		for i, in := range n.Inputs {
			ins[i] = strings.Join(p.Nodes[in].Attrs, "")
		}
		fmt.Fprintf(&sb, "  hev   H[%s] @S%d ← %s\n", strings.Join(n.Attrs, ""), n.Site, strings.Join(ins, " + "))
	}
	ruleIDs := make([]string, 0, len(p.Bindings))
	for id := range p.Bindings {
		ruleIDs = append(ruleIDs, id)
	}
	sort.Strings(ruleIDs)
	for _, id := range ruleIDs {
		b := p.Bindings[id]
		fmt.Fprintf(&sb, "  rule  %s: X=H[%s]@S%d, B=H[%s]@S%d, IDX @S%d\n",
			id,
			strings.Join(p.Nodes[b.XNode].Attrs, ""), p.Nodes[b.XNode].Site,
			strings.Join(p.Nodes[b.BNode].Attrs, ""), p.Nodes[b.BNode].Site,
			b.IDXSite)
	}
	fmt.Fprintf(&sb, "  Neqid per unit update: %d\n", p.Neqid())
	return sb.String()
}
