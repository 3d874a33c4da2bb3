package vertical

import (
	"fmt"
	"sort"

	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/optimizer"
	"repro/internal/partition"
	"repro/internal/xerr"
)

// This file is the live rule-management path of the vertical engine.
// AddRules grafts a naive-chain sub-plan for the new variable rules onto
// the running plan (existing nodes and their seeded equivalence state are
// untouched), installs the new per-site structures in one metered round,
// and then seeds only the new rules' HEV/IDX state and violation marks by
// replaying the resident tuple ids through the batch-grouped phases —
// eqid deliveries coalesced per edge and metered exactly like an
// Apply wave. RemoveRules retires the rules' IDX state and marks;
// plan nodes shared with surviving rules stay live, and orphaned nodes
// keep their (now inert) equivalence state, which costs memory but never
// correctness.

// addRulesReq installs new rules at a site. For in-process sites the
// plan has already been grafted by the driver (sites share the plan
// object, as they do at construction); FirstNode marks where the
// grafted nodes begin. Sub carries the same sub-plan on the wire for
// remotely hosted sites, which own their plan copy and graft it
// themselves — Graft is deterministic and id assignment depends only on
// the pre-graft node count, so driver and daemons end bit-identical.
type addRulesReq struct {
	Rules     []cfd.CFD
	FirstNode int
	Sub       *optimizer.Plan
}

// vDropRulesReq retires rules at a site.
type vDropRulesReq struct {
	Rules []string
}

// listIDsReq asks a site for its resident tuple ids (every vertical
// fragment holds a projection of every tuple, so one site suffices).
type listIDsReq struct{}

type listIDsResp struct {
	IDs []int64
}

// addRules is the site half of AddRules: install the grafted nodes this
// site owns and put the rules in force, which renumbers every rule. A
// hosted site grafts the shipped sub-plan onto its own plan copy;
// in-process sites see the driver's already-grafted plan. The request is
// checked in full before anything changes.
func (s *site) addRules(req addRulesReq) (empty, error) {
	const method = "v.addRules"
	if req.FirstNode != len(s.nodes) {
		return empty{}, s.refuse(method, "plan out of sync: %d nodes, graft expects %d", len(s.nodes), req.FirstNode)
	}
	grafted := s.plan.Nodes[len(s.nodes):]
	graft := s.ownsPlan && req.Sub != nil
	if graft {
		if err := req.Sub.Validate(); err != nil {
			return empty{}, s.refuse(method, "%w", err)
		}
		for id := range req.Sub.Bindings {
			if _, bound := s.plan.Bindings[id]; bound {
				return empty{}, s.refuse(method, "rule %q is bound in the plan already: %w", id, xerr.ErrDuplicateRule)
			}
		}
		grafted = req.Sub.Nodes
	}
	if err := s.checkNodes(grafted); err != nil {
		return empty{}, err
	}
	if err := s.checkRules(req.Rules); err != nil {
		return empty{}, err
	}
	if graft {
		s.plan.Graft(req.Sub)
	}
	s.installNodes()
	s.setRules(append(s.rules, s.resolveRules(req.Rules)...))
	return empty{}, nil
}

// vDropRules is the site half of RemoveRules; the surviving rules close
// ranks in the numbering. A hosted site also sheds the rules' bindings
// from its own plan copy (the driver does this for the shared in-process
// plan after the round).
func (s *site) vDropRules(req vDropRulesReq) (empty, error) {
	drop := make(map[string]bool, len(req.Rules))
	for _, id := range req.Rules {
		if _, ok := s.ruleNo(id); !ok || drop[id] {
			return empty{}, fmt.Errorf("vertical: site %d: dropping rule %q: %w", s.id, id, xerr.ErrUnknownRule)
		}
		drop[id] = true
	}
	kept := make([]siteRule, 0, len(s.rules)-len(drop))
	for _, r := range s.rules {
		if !drop[r.rule.ID] {
			kept = append(kept, r)
		} else if s.ownsPlan {
			s.plan.DropRule(r.rule.ID)
		}
	}
	s.setRules(kept)
	return empty{}, nil
}

// listIDs returns the fragment's tuple ids, ascending.
func (s *site) listIDs(listIDsReq) (listIDsResp, error) {
	ids := s.frag.IDs()
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id)
	}
	return listIDsResp{IDs: out}, nil
}

// GraftRules extends plan in place for newly added rules, exactly as
// AddRules does on a live system: the variable rules are planned as
// self-contained §4 naive chains and grafted onto plan. Constant rules
// need no plan state and are skipped. The session's journal fold uses
// this to replay AddRules intents onto the checkpointed plan when
// rebuilding a crashed driver — grafting is deterministic, so the
// folded plan is node-for-node identical to the one the live driver
// (and every site daemon) holds.
func GraftRules(plan *optimizer.Plan, scheme *partition.VerticalScheme, rules []cfd.CFD) error {
	subIn := optimizer.Input{NumSites: scheme.NumSites, AttrSites: scheme.AttrSites}
	for i := range rules {
		if !rules[i].IsConstant() {
			subIn.Rules = append(subIn.Rules, optimizer.RuleSpec{ID: rules[i].ID, LHS: rules[i].LHS, RHS: rules[i].RHS})
		}
	}
	if len(subIn.Rules) == 0 {
		return nil
	}
	sub, err := optimizer.NaiveChainPlan(subIn)
	if err != nil {
		return err
	}
	plan.Graft(sub)
	return nil
}

// AddRules brings new rules into force on the running system without
// rebuilding it. New variable rules are planned as §4 naive chains and
// grafted onto the running plan; one metered round installs the per-site
// structures, and a batch-grouped seed wave replays the resident tuples
// through only the new rules' constant checks, eqid resolution/shipment
// and Fig. 4 analyses. The returned ∆V holds exactly the new rules'
// marks, already applied to Violations(). Like Apply, the rounds
// are not atomic: a mid-round transport error leaves driver and sites
// desynchronized, and the system should be rebuilt.
func (sys *System) AddRules(rules []cfd.CFD) (*cfd.Delta, error) {
	if sys.noIndexes {
		return nil, fmt.Errorf("vertical: cannot add rules: %w", xerr.ErrNoIndexes)
	}
	delta := cfd.NewDelta()
	if len(rules) == 0 {
		return delta, nil
	}
	all := append(append([]cfd.CFD(nil), sys.rules...), rules...)
	if err := cfd.ValidateAll(sys.schema, all); err != nil {
		return nil, err
	}

	// Plan the new variable rules as self-contained §4 chains and graft
	// them; existing nodes (and the equivalence state seeded under them)
	// are untouched.
	subIn := optimizer.Input{NumSites: sys.scheme.NumSites, AttrSites: sys.scheme.AttrSites}
	for i := range rules {
		if !rules[i].IsConstant() {
			subIn.Rules = append(subIn.Rules, optimizer.RuleSpec{ID: rules[i].ID, LHS: rules[i].LHS, RHS: rules[i].RHS})
		}
	}
	firstNode := len(sys.plan.Nodes)
	var sub *optimizer.Plan
	if len(subIn.Rules) > 0 {
		var err error
		sub, err = optimizer.NaiveChainPlan(subIn)
		if err != nil {
			return nil, err
		}
		// Graft copies sub's nodes; sub itself stays 0-based and rides
		// in the install round for hosted sites to graft identically.
		sys.plan.Graft(sub)
	}

	// Coordinator facts for the new constant rules (as in NewSystem).
	for i := range rules {
		r := &rules[i]
		if !r.IsConstant() {
			continue
		}
		coord, ok := sys.scheme.PrimarySiteOf(r.RHS)
		if !ok {
			return nil, fmt.Errorf("vertical: rule %s: RHS %q not assigned to a site: %w", r.ID, r.RHS, xerr.ErrUnknownAttribute)
		}
		sys.constCoord[r.ID] = network.SiteID(coord)
		attrs, _ := r.ConstantLHS()
		seen := make(map[network.SiteID]bool)
		for _, a := range attrs {
			p, ok := sys.scheme.PrimarySiteOf(a)
			if !ok {
				return nil, fmt.Errorf("vertical: rule %s: attribute %q not assigned to a site: %w", r.ID, a, xerr.ErrUnknownAttribute)
			}
			if !seen[network.SiteID(p)] {
				seen[network.SiteID(p)] = true
				sys.constSites[r.ID] = append(sys.constSites[r.ID], network.SiteID(p))
			}
		}
		sort.Slice(sys.constSites[r.ID], func(a, b int) bool {
			return sys.constSites[r.ID][a] < sys.constSites[r.ID][b]
		})
	}

	// Metered install round: every site learns the new rules and creates
	// its grafted structures.
	coord := network.SiteID(0)
	targets := make([]network.SiteID, len(sys.sites))
	for i := range sys.sites {
		targets[i] = network.SiteID(i)
	}
	req := addRulesReq{Rules: rules, FirstNode: firstNode, Sub: sub}
	if _, err := gather[addRulesReq, empty](sys, coord, "v.addRules", targets, func(network.SiteID) addRulesReq {
		return req
	}); err != nil {
		return nil, err
	}

	// Driver state: the rule slices are rebuilt over the grown backing
	// array, and indexRules renumbers exactly as every site just did.
	sys.rules = all
	sys.varRules, sys.constRules = nil, nil
	var newVar, newConst []*cfd.CFD
	for i := range sys.rules {
		r := &sys.rules[i]
		isNew := i >= len(all)-len(rules)
		if r.IsConstant() {
			sys.constRules = append(sys.constRules, r)
			if isNew {
				newConst = append(newConst, r)
			}
		} else {
			sys.varRules = append(sys.varRules, r)
			if isNew {
				newVar = append(newVar, r)
			}
		}
	}
	sys.indexRules()

	// Seed wave: replay the resident ids through the new rules only.
	var idResp listIDsResp
	if err := sys.send(coord, network.SiteID(0), "v.listIDs", listIDsReq{}, &idResp); err != nil {
		return nil, err
	}
	if len(idResp.IDs) > 0 {
		if err := sys.seedWave(idResp.IDs, newConst, newVar, delta); err != nil {
			return nil, err
		}
	}
	if err := sys.barrier(); err != nil {
		return nil, err
	}
	delta.Apply(sys.v)
	return delta, nil
}

// seedWave runs the batch-grouped phases of one insertion wave restricted
// to the given (new) rules — the tails of sys.constRules and sys.varRules
// — without touching the fragments: applyWave's phases 2–5 plus the
// buffer clears.
func (sys *System) seedWave(ids []int64, newConst, newVar []*cfd.CFD, delta *cfd.Delta) error {
	w := sys.newWave(ids)
	for i := range ids {
		w.ins.set(i)
	}

	// Pattern constants. Only sites holding a new rule's constant-pattern
	// attribute can fail one, so the fan-out skips checker sites that
	// serve old rules exclusively.
	checkSites := make(map[network.SiteID]bool)
	for _, list := range [][]*cfd.CFD{newConst, newVar} {
		for _, r := range list {
			attrs, _ := r.ConstantLHS()
			for _, a := range attrs {
				for _, si := range sys.scheme.AttrSites[a] {
					checkSites[network.SiteID(si)] = true
				}
			}
		}
	}
	var checkers []network.SiteID
	for _, c := range sys.checkers {
		if checkSites[c] {
			checkers = append(checkers, c)
		}
	}
	if err := sys.evalConstants(w, checkers); err != nil {
		return err
	}
	if err := sys.constPhase(w, newConst, sys.constNo[len(sys.constNo)-len(newConst):], delta); err != nil {
		return err
	}
	if len(newVar) == 0 {
		return nil
	}
	mask := make(bitset, len(sys.varMask))
	for _, no := range sys.varNo[len(sys.varNo)-len(newVar):] {
		mask.set(no)
	}
	if err := sys.varPhase(w, mask, delta); err != nil {
		return err
	}
	return sys.endWave(w)
}

// RemoveRules retires rules by id: their marks leave Violations() (one
// pass over the mark bitsets), one metered round drops the per-site IDX state and
// constant checks, and the plan sheds the rules' bindings (nodes shared
// with surviving rules stay live). The returned ∆V holds exactly the
// retired marks.
func (sys *System) RemoveRules(ids []string) (*cfd.Delta, error) {
	if sys.noIndexes {
		return nil, fmt.Errorf("vertical: cannot remove rules: %w", xerr.ErrNoIndexes)
	}
	drop := make(map[string]bool, len(ids))
	inForce := make(map[string]bool, len(sys.rules))
	for i := range sys.rules {
		inForce[sys.rules[i].ID] = true
	}
	for _, id := range ids {
		if drop[id] {
			return nil, fmt.Errorf("vertical: rule %q listed twice: %w", id, xerr.ErrDuplicateRule)
		}
		if !inForce[id] {
			return nil, fmt.Errorf("vertical: removing rule %q: %w", id, xerr.ErrUnknownRule)
		}
		drop[id] = true
	}
	if len(ids) == 0 {
		return cfd.NewDelta(), nil
	}
	delta := sys.v.RetiredDelta(ids)

	coord := network.SiteID(0)
	targets := make([]network.SiteID, len(sys.sites))
	for i := range sys.sites {
		targets[i] = network.SiteID(i)
	}
	if _, err := gather[vDropRulesReq, empty](sys, coord, "v.dropRules", targets, func(network.SiteID) vDropRulesReq {
		return vDropRulesReq{Rules: ids}
	}); err != nil {
		return nil, err
	}

	for _, id := range ids {
		sys.plan.DropRule(id)
		delete(sys.constCoord, id)
		delete(sys.constSites, id)
	}
	var kept []cfd.CFD
	for i := range sys.rules {
		if !drop[sys.rules[i].ID] {
			kept = append(kept, sys.rules[i])
		}
	}
	sys.rules = kept
	sys.varRules, sys.constRules = nil, nil
	for i := range sys.rules {
		r := &sys.rules[i]
		if r.IsConstant() {
			sys.constRules = append(sys.constRules, r)
		} else {
			sys.varRules = append(sys.varRules, r)
		}
	}
	sys.indexRules()
	delta.Apply(sys.v)
	return delta, nil
}
