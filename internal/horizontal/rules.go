package horizontal

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/relation"
	"repro/internal/xerr"
)

// This file is the live rule-management path of the horizontal engine:
// AddRules seeds only the new rules' per-site group indexes and violation
// marks through metered seed-delta rounds (one coalesced seed message per
// site plus one settle round for the groups the driver decided), and
// RemoveRules retires a rule's site state and marks without touching any
// other rule. Neither rebuilds the system; both are metered like any
// other protocol round.

// seedRulesReq installs new rules at a site and asks for the seed
// evidence: Rules are the new rules in batch order; Local is aligned and
// flags the rules the driver determined need no cross-site evidence
// (constant rules and §6's locally checkable rules under the partition
// predicates).
type seedRulesReq struct {
	Rules []cfd.CFD
	Local []bool
}

// seedGroupInfo is one local (rule, X-group): its 16-byte code plus up
// to two distinct local B digests (two means "at least two", which alone
// decides the group violating).
type seedGroupInfo struct {
	X  []byte
	Bs [][]byte
}

// seedRulesItem is one rule's seed evidence from one site.
type seedRulesItem struct {
	// Violations lists the site's violating tuple ids for constant and
	// locally checked rules (their flags are already settled site-side).
	Violations []int64
	// Groups lists the site's local groups for broadcast rules, sorted
	// by group code.
	Groups []seedGroupInfo
}

// seedRulesResp carries one item per seeded rule, in request order.
type seedRulesResp struct {
	Items []seedRulesItem
}

// dropRulesReq retires rules at a site: compiled forms, group indexes
// and their classes are dropped.
type dropRulesReq struct {
	Rules []string
}

// seedRules is the site half of AddRules: it compiles and installs the
// new rules, builds their group indexes from the local fragment in one
// scan, settles the flags of locally decidable rules, and reports the
// evidence the driver needs for the rest. A rule list the site cannot
// install whole is refused before anything changes.
func (s *site) seedRules(req seedRulesReq) (seedRulesResp, error) {
	if len(req.Local) != len(req.Rules) {
		return seedRulesResp{}, s.refuse("h.seedRules", "%d local flags for %d rules", len(req.Local), len(req.Rules))
	}
	for i := range req.Rules {
		r := &req.Rules[i]
		if err := r.Validate(s.schema); err != nil {
			return seedRulesResp{}, s.refuse("h.seedRules", "%w", err)
		}
		if _, dup := s.rules[r.ID]; dup || slices.ContainsFunc(req.Rules[:i], func(p cfd.CFD) bool { return p.ID == r.ID }) {
			return seedRulesResp{}, fmt.Errorf("horizontal: site %d: rule %q already in force: %w", s.id, r.ID, xerr.ErrDuplicateRule)
		}
	}
	base := len(s.ruleOrder)
	for i := range req.Rules {
		r := req.Rules[i]
		c := cfd.Compile(s.schema, &r, cfd.RuleIdx(base+i))
		s.install(&c)
	}
	added := s.ruleOrder[base:]

	resp := seedRulesResp{Items: make([]seedRulesItem, len(added))}
	s.frag.Each(func(t relation.Tuple) bool {
		for i, r := range added {
			if r.ConstRHS {
				if r.SingleViolation(t) {
					resp.Items[i].Violations = append(resp.Items[i].Violations, int64(t.ID))
				}
				continue
			}
			if !r.MatchesLHS(t) {
				continue
			}
			dx, db := s.tupleKeys(r.Compiled, t)
			c, _ := r.ensureGroup(dx).ensure(db)
			c.add(t.ID)
		}
		return true
	})

	for i, r := range added {
		if r.ConstRHS {
			continue
		}
		item := &resp.Items[i]
		for _, dx := range sortedCodes(r.groups) {
			g := r.groups[dx]
			if req.Local[i] {
				// Locally checkable: the group is global, decide here.
				if len(g.classes) < 2 {
					continue
				}
				for k := range g.classes {
					g.classes[k].inV = true
					item.Violations = appendIDs(item.Violations, g.classes[k].members)
				}
				continue
			}
			item.Groups = append(item.Groups, seedGroupInfo{X: append([]byte(nil), dx[:]...), Bs: distinctDigests(g)})
		}
		slices.Sort(item.Violations)
	}
	return resp, nil
}

// dropRules is the site half of RemoveRules. A list naming a rule the
// site does not hold, or one rule twice, is refused before any is
// dropped.
func (s *site) dropRules(req dropRulesReq) (empty, error) {
	for i, id := range req.Rules {
		if _, ok := s.rules[id]; !ok || slices.Contains(req.Rules[:i], id) {
			return empty{}, s.refuse("h.dropRules", "rule %q: %w", id, xerr.ErrUnknownRule)
		}
	}
	for _, id := range req.Rules {
		delete(s.rules, id)
		s.ruleOrder = slices.DeleteFunc(s.ruleOrder, func(r *siteRule) bool { return r.ID == id })
	}
	return empty{}, nil
}

// allSites returns every site id in order.
func (sys *System) allSites() []network.SiteID {
	out := make([]network.SiteID, sys.cluster.NumSites())
	for i := range out {
		out[i] = network.SiteID(i)
	}
	return out
}

// AddRules brings new rules into force on the running system without
// rebuilding it: the new rules' group indexes are seeded per site from
// the local fragments, locally decidable rules settle their flags in
// place, and the remaining groups are decided by the driver from the
// sites' ≤2-distinct-B evidence and settled in one more coalesced round.
// The rounds are metered like any other protocol round; the returned ∆V
// holds exactly the new rules' marks, already marked in Violations().
// The rules must validate beside those in force (cfd.ValidateAll); the
// caller checks. Like Apply, the rounds are not atomic: a mid-round
// transport error leaves driver and sites desynchronized, and the
// system should be rebuilt.
func (sys *System) AddRules(rules []cfd.CFD) (*cfd.Delta, error) {
	if len(rules) == 0 {
		return &cfd.Delta{}, nil
	}
	before := sys.v.Seal()
	first := len(sys.rules)
	sys.setRules(append(slices.Clip(sys.rules), rules...))
	local := make([]bool, len(rules))
	for i := range rules {
		local[i] = sys.facts[first+i].local
	}

	// Seed round: one coalesced message per site, from the coordinator.
	coord := network.SiteID(0)
	targets := sys.allSites()
	req := seedRulesReq{Rules: rules, Local: local}
	resps, err := gather(sys, coord, mSeedRules, targets, func(network.SiteID) seedRulesReq {
		return req
	})
	if err != nil {
		return nil, err
	}

	// Locally settled marks, and the driver-side merge of broadcast-rule
	// group evidence: a group violates iff ≥ 2 distinct B values exist
	// across all sites.
	type groupKey struct {
		rule int
		x    code
	}
	type groupAgg struct {
		bs    [][]byte
		sites []network.SiteID
	}
	agg := make(map[groupKey]*groupAgg)
	var aggOrder []groupKey
	for si, resp := range resps {
		if len(resp.Items) != len(rules) {
			return nil, errResponseShape("h.seedRules", targets[si])
		}
		for ri, item := range resp.Items {
			for _, id := range item.Violations {
				sys.v.Add(relation.TupleID(id), rules[ri].ID)
			}
			for _, g := range item.Groups {
				if len(g.X) != codeLen {
					return nil, errResponseShape("h.seedRules", targets[si])
				}
				k := groupKey{rule: ri, x: code(g.X)}
				a, ok := agg[k]
				if !ok {
					a = &groupAgg{}
					agg[k] = a
					aggOrder = append(aggOrder, k)
				}
				a.sites = append(a.sites, targets[si])
				for _, b := range g.Bs {
					if len(a.bs) >= 2 {
						break
					}
					dup := false
					for _, seen := range a.bs {
						if bytes.Equal(seen, b) {
							dup = true
							break
						}
					}
					if !dup {
						a.bs = append(a.bs, b)
					}
				}
			}
		}
	}

	// Settle round: flip the violating groups' flags at every site that
	// holds them, one coalesced envelope per site.
	settleItems := make(map[network.SiteID][]settleGroupItem)
	settleRules := make(map[network.SiteID][]string)
	for _, k := range aggOrder {
		a := agg[k]
		if len(a.bs) < 2 {
			continue
		}
		item := settleGroupItem{Rule: rules[k.rule].ID, X: keyRef{Digest: append([]byte(nil), k.x[:]...)}, Flag: true}
		for _, s := range a.sites {
			settleItems[s] = append(settleItems[s], item)
			settleRules[s] = append(settleRules[s], rules[k.rule].ID)
		}
	}
	settleSites := network.SortedSites(settleItems)
	settleResps, err := gather(sys, coord, mSettleGroup, settleSites, func(s network.SiteID) settleGroupReq {
		return settleGroupReq{Items: settleItems[s]}
	})
	if err != nil {
		return nil, err
	}
	for si, s := range settleSites {
		if len(settleResps[si].Items) != len(settleItems[s]) {
			return nil, errResponseShape("h.settleGroup", s)
		}
		for k, ir := range settleResps[si].Items {
			for _, id := range ir.Added {
				sys.v.Add(relation.TupleID(id), settleRules[s][k])
			}
		}
	}
	return sys.v.DeltaSince(&before), nil
}

// RemoveRules retires rules by id: their marks leave Violations() (one
// pass over the mark bitsets), and one metered round drops the
// per-site compiled forms and group indexes. The returned ∆V holds
// exactly the retired marks. Each id must name a rule in force, once;
// the caller checks.
func (sys *System) RemoveRules(ids []string) (*cfd.Delta, error) {
	if len(ids) == 0 {
		return &cfd.Delta{}, nil
	}
	before := sys.v.Seal()

	coord := network.SiteID(0)
	targets := sys.allSites()
	if _, err := gather(sys, coord, mDropRules, targets, func(network.SiteID) dropRulesReq {
		return dropRulesReq{Rules: ids}
	}); err != nil {
		return nil, err
	}
	sys.setRules(slices.DeleteFunc(slices.Clone(sys.rules), func(r cfd.CFD) bool { return slices.Contains(ids, r.ID) }))
	sys.v.ClearRules(ids)
	return sys.v.DeltaSince(&before), nil
}
