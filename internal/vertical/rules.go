package vertical

import (
	"fmt"
	"slices"

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

// addRulesReq installs new rules at a site. Sub is the new variable
// rules' sub-plan (nil when there is none), which every site grafts onto
// its own plan copy as the driver grafted it onto its own; FirstNode is
// where the grafted nodes begin. Graft is deterministic and id
// assignment depends only on the pre-graft node count, so driver and
// sites end bit-identical.
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

// addRules is the site half of AddRules: graft the shipped sub-plan onto
// the site's plan copy, install the grafted nodes this site owns and put
// the rules in force, which renumbers every rule. The request is checked
// in full before anything changes.
func (s *site) addRules(req addRulesReq) (empty, error) {
	const method = "v.addRules"
	if req.FirstNode != len(s.nodes) {
		return empty{}, s.refuse(method, "plan out of sync: %d nodes, graft expects %d", len(s.nodes), req.FirstNode)
	}
	var grafted []optimizer.Node
	if req.Sub != nil {
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
	if req.Sub != nil {
		s.plan.Graft(req.Sub)
	}
	s.installNodes()
	s.setRules(append(s.rules, s.resolveRules(req.Rules)...))
	return empty{}, nil
}

// vDropRules is the site half of RemoveRules: the rules' bindings leave
// the site's plan copy, and the surviving rules close ranks in the
// numbering.
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
		} else {
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
	sub, err := newChains(scheme, rules)
	if sub != nil {
		plan.Graft(sub)
	}
	return err
}

// newChains plans the variable rules of rules as self-contained §4
// naive chains, 0-based; nil when there is none.
func newChains(scheme *partition.VerticalScheme, rules []cfd.CFD) (*optimizer.Plan, error) {
	in := planInput(scheme, rules)
	if len(in.Rules) == 0 {
		return nil, nil
	}
	return optimizer.NaiveChainPlan(in)
}

// AddRules brings new rules into force on the running system without
// rebuilding it. New variable rules are planned as §4 naive chains and
// grafted onto the running plan; one metered round installs the per-site
// structures, and a batch-grouped seed wave replays the resident tuples
// through only the new rules' constant checks, eqid resolution/shipment
// and Fig. 4 analyses. The returned ∆V holds exactly the new rules'
// marks, already marked in Violations(). The rules must validate beside
// those in force (cfd.ValidateAll); the caller checks. Like Apply, the
// rounds are not atomic: a mid-round transport error leaves driver and
// sites desynchronized, and the system should be rebuilt.
func (sys *System) AddRules(rules []cfd.CFD) (*cfd.Delta, error) {
	if len(rules) == 0 {
		return &cfd.Delta{}, nil
	}
	before := sys.v.Seal()
	// Existing nodes (and the equivalence state seeded under them) are
	// untouched by the graft. sub itself stays 0-based and rides in the
	// install round: every site grafts it onto its own plan copy.
	sub, err := newChains(sys.scheme, rules)
	if err != nil {
		return nil, err
	}
	firstNode := len(sys.plan.Nodes)
	if err := sys.setRules(append(slices.Clip(sys.rules), rules...), sub); err != nil {
		return nil, err
	}

	// Metered install round: every site learns the new rules, renumbers
	// exactly as setRules just did, and creates its grafted structures.
	coord := network.SiteID(0)
	req := addRulesReq{Rules: rules, FirstNode: firstNode, Sub: sub}
	if _, err := gather(sys, coord, mAddRules, sys.allSites(), func(network.SiteID) addRulesReq {
		return req
	}); err != nil {
		return nil, err
	}

	// Seed wave: replay the resident ids through the new rules only, the
	// tails of constNo and varNo.
	newConst := 0
	for i := range rules {
		if rules[i].IsConstant() {
			newConst++
		}
	}
	idResp, err := send(sys, sys.cluster.Lane(), coord, network.SiteID(0), mListIDs, listIDsReq{})
	if err != nil {
		return nil, err
	}
	if len(idResp.IDs) > 0 {
		err := sys.seedWave(idResp.IDs, sys.constNo[len(sys.constNo)-newConst:], sys.varNo[len(sys.varNo)-(len(rules)-newConst):])
		sys.doneWave(len(idResp.IDs))
		if err != nil {
			return nil, err
		}
	}
	if err := sys.barrier(); err != nil {
		return nil, err
	}
	return sys.v.DeltaSince(&before), nil
}

// seedWave runs the batch-grouped phases of one insertion wave restricted
// to the given (new) rules, by number — the tails of sys.constNo and
// sys.varNo — without touching the fragments: applyWave's phases 2–5
// plus the buffer clears.
func (sys *System) seedWave(ids []int64, newConst, newVar []int) error {
	w := sys.newWave(len(ids))
	copy(w.ids, ids)
	for i := range ids {
		w.ins.set(i)
	}

	// Pattern constants. Only sites holding a new rule's constant-pattern
	// attribute can fail one, so the fan-out skips checker sites that
	// serve old rules exclusively.
	checkSites := make(map[network.SiteID]bool)
	for _, nos := range [][]int{newConst, newVar} {
		for _, no := range nos {
			attrs, _ := sys.byNo[no].rule.ConstantLHS()
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
	if err := sys.constPhase(w, newConst); err != nil {
		return err
	}
	if len(newVar) == 0 {
		return nil
	}
	mask := bitset(sys.sc.rows(len(sys.varMask)))
	for _, no := range newVar {
		mask.set(no)
	}
	if err := sys.varPhase(w, mask); err != nil {
		return err
	}
	return sys.endWave(w)
}

// RemoveRules retires rules by id: their marks leave Violations() (one
// pass over the mark bitsets), one metered round drops the per-site IDX
// state and constant checks, and the plan sheds the rules' bindings
// (nodes shared with surviving rules stay live). The returned ∆V holds
// exactly the retired marks. Each id must name a rule in force, once;
// the caller checks.
func (sys *System) RemoveRules(ids []string) (*cfd.Delta, error) {
	if len(ids) == 0 {
		return &cfd.Delta{}, nil
	}
	before := sys.v.Seal()
	coord := network.SiteID(0)
	if _, err := gather(sys, coord, mDropRules, sys.allSites(), func(network.SiteID) vDropRulesReq {
		return vDropRulesReq{Rules: ids}
	}); err != nil {
		return nil, err
	}
	for _, id := range ids {
		sys.plan.DropRule(id)
	}
	kept := slices.DeleteFunc(slices.Clone(sys.rules), func(r cfd.CFD) bool { return slices.Contains(ids, r.ID) })
	if err := sys.setRules(kept, nil); err != nil {
		return nil, err
	}
	sys.v.ClearRules(ids)
	return sys.v.DeltaSince(&before), nil
}

// allSites returns every site id in order.
func (sys *System) allSites() []network.SiteID {
	out := make([]network.SiteID, sys.scheme.NumSites)
	for i := range out {
		out[i] = network.SiteID(i)
	}
	return out
}
