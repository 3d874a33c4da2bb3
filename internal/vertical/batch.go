package vertical

import (
	"sort"

	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/relation"
)

// BatchDetect is batVer: the non-incremental baseline in the style of Fan
// et al. (ICDE 2010). For every rule, each site ships its rule-relevant
// columns to a designated coordinator site, which joins them on tuple id,
// evaluates the pattern and checks the rule. Data shipment is Θ(|D|) per
// rule — the cost the incremental algorithms avoid — and the coordinator
// concentrates the assembly work, which is why batVer's scaleup degrades
// as partitions grow (the paper's Fig 9(e)). Rules entirely contained in
// the coordinator's own fragment are checked locally with no shipment.
func (sys *System) BatchDetect() (*cfd.Violations, error) {
	v := cfd.NewViolations()
	v.InternRules(sys.rules)
	for i := range sys.rules {
		if err := sys.batchRule(&sys.rules[i], v); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// batchCoordinator is batVer's designated coordinator site.
const batchCoordinator = 0

func (sys *System) batchRule(rule *cfd.CFD, v *cfd.Violations) error {
	coordID := network.SiteID(batchCoordinator)

	// Participants: every site holding at least one attribute of X∪{B}
	// (using each attribute's primary replica).
	partSet := make(map[network.SiteID]bool)
	for _, a := range rule.Attrs() {
		if p, ok := sys.scheme.PrimarySiteOf(a); ok {
			partSet[network.SiteID(p)] = true
		}
	}
	participants := make([]network.SiteID, 0, len(partSet))
	for s := range partSet {
		participants = append(participants, s)
	}
	sort.Slice(participants, func(i, j int) bool { return participants[i] < participants[j] })

	// Collect columns at the coordinator. The reply payloads are the
	// shipped data; the coordinator's own columns stay local.
	type partial struct {
		vals map[string]string
		seen int
	}
	tuples := make(map[int64]*partial)
	resps, err := gather(sys, coordID, mShipCols, participants, func(network.SiteID) shipColsReq {
		return shipColsReq{Rule: rule.ID}
	})
	if err != nil {
		return err
	}
	for _, resp := range resps {
		for _, row := range resp.Rows {
			p, ok := tuples[row.ID]
			if !ok {
				p = &partial{vals: make(map[string]string, len(rule.Attrs()))}
				tuples[row.ID] = p
			}
			for ai, a := range resp.Attrs {
				p.vals[a] = row.Vals[ai]
			}
			p.seen++
		}
	}

	// The coordinator evaluates tp[X] on the assembled projections
	// (shipping sites project columns without filtering).
	matches := func(p *partial) bool {
		for li, a := range rule.LHS {
			if !cfd.MatchValue(p.vals[a], rule.LHSPattern[li]) {
				return false
			}
		}
		return true
	}
	ids := make([]int64, 0, len(tuples))
	for id, p := range tuples {
		if p.seen == len(participants) && matches(p) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	if rule.IsConstant() {
		for _, id := range ids {
			if tuples[id].vals[rule.RHS] != rule.RHSPattern {
				v.Add(relation.TupleID(id), rule.ID)
			}
		}
		return nil
	}

	// Variable rule: group by X values, flag groups with ≥ 2 distinct B.
	type group struct {
		members   []int64
		firstB    string
		distinctB int
	}
	groups := make(map[string]*group)
	for _, id := range ids {
		p := tuples[id]
		keyParts := make([]string, len(rule.LHS))
		for i, a := range rule.LHS {
			keyParts[i] = p.vals[a]
		}
		key := relation.JoinKey(keyParts)
		b := p.vals[rule.RHS]
		g, ok := groups[key]
		if !ok {
			groups[key] = &group{members: []int64{id}, firstB: b, distinctB: 1}
			continue
		}
		if g.distinctB == 1 && b != g.firstB {
			g.distinctB = 2
		}
		g.members = append(g.members, id)
	}
	for _, g := range groups {
		if g.distinctB > 1 {
			for _, id := range g.members {
				v.Add(relation.TupleID(id), rule.ID)
			}
		}
	}
	return nil
}
