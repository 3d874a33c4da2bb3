package vertical

import (
	"fmt"

	"repro/internal/cfd"
	"repro/internal/eqclass"
	"repro/internal/network"
	"repro/internal/optimizer"
	"repro/internal/relation"
)

// constChecks collects the locally held pattern constants of one rule,
// deduplicated at construction so evalConsts needs no per-call seen-set.
type constChecks struct {
	ruleID string
	cols   []int // column indexes in the fragment schema
	values []string
}

// site is the per-fragment state of the vertical detection system. All
// access goes through the methods below, dispatched by the cluster; the
// dispatch is serialized per site, so the scratch state (eqid buffer
// pool, input-eqid slice) needs no locking.
type site struct {
	id     network.SiteID
	schema *relation.Schema // fragment schema
	frag   *relation.Relation

	plan *optimizer.Plan
	// ownsPlan marks a remotely hosted site whose plan is its own copy
	// (decoded from the bootstrap hello) rather than shared with the
	// driver: rule grafts and drops then apply to it from the wire.
	ownsPlan bool
	rules    map[string]*cfd.CFD

	base   map[string]*eqclass.BaseHEV       // one per locally hosted base node attr
	hevs   map[optimizer.NodeID]*eqclass.HEV // composed nodes hosted here
	idx    map[string]*eqclass.IDX           // rule id → IDX hosted here
	checks []constChecks                     // local pattern-constant checks, one entry per rule

	// buf holds the per-tuple eqid buffer: one slot per plan node, 0 =
	// unset (eqids start at 1). Retired buffers are pooled, so steady
	// state updates allocate nothing here.
	buf     map[int64][]int64
	bufPool [][]int64
	// inScratch is the reused input-eqid slice for composed resolves.
	inScratch []eqclass.EqID
	// snapLen is the size of the last snapshot, the next one's buffer.
	snapLen int
}

func newSite(id network.SiteID, schema *relation.Schema, plan *optimizer.Plan, rules []cfd.CFD) *site {
	s := &site{
		id:     id,
		schema: schema,
		frag:   relation.New(schema),
		plan:   plan,
		rules:  make(map[string]*cfd.CFD, len(rules)),
		base:   make(map[string]*eqclass.BaseHEV),
		hevs:   make(map[optimizer.NodeID]*eqclass.HEV),
		idx:    make(map[string]*eqclass.IDX),
		buf:    make(map[int64][]int64),
	}
	for i := range rules {
		r := &rules[i]
		s.rules[r.ID] = r
		if cc := constChecksFor(schema, r); len(cc.cols) > 0 {
			s.checks = append(s.checks, cc)
		}
	}
	for _, n := range plan.Nodes {
		if int(n.Site) != int(id) {
			continue
		}
		switch n.Kind {
		case optimizer.Base:
			if _, ok := s.base[n.Attrs[0]]; !ok {
				s.base[n.Attrs[0]] = eqclass.NewBaseHEV(n.Attrs[0])
			}
		case optimizer.Composed:
			s.hevs[n.ID] = eqclass.NewHEV(n.Attrs)
		}
	}
	for rid, b := range plan.Bindings {
		if int(b.IDXSite) == int(id) {
			s.idx[rid] = eqclass.NewIDX()
		}
	}
	return s
}

// constChecksFor returns r's pattern-constant checks over a fragment
// schema: one (column, constant) pair per non-wildcard LHS pattern on an
// attribute the fragment holds. The site checks r iff there is at least
// one — the predicate System.indexRules derives the checker sites from.
func constChecksFor(schema *relation.Schema, r *cfd.CFD) constChecks {
	cc := constChecks{ruleID: r.ID}
	for li, a := range r.LHS {
		if r.LHSPattern[li] == cfd.Wildcard {
			continue
		}
		if col, ok := schema.Index(a); ok {
			cc.cols = append(cc.cols, col)
			cc.values = append(cc.values, r.LHSPattern[li])
		}
	}
	return cc
}

// apply stores or removes the tuple's projection in the fragment.
func (s *site) apply(req applyReq) error {
	switch req.Op {
	case OpInsert:
		return s.frag.Insert(relation.Tuple{ID: relation.TupleID(req.ID), Values: req.Values})
	case OpDelete:
		_, err := s.frag.Delete(relation.TupleID(req.ID))
		return err
	}
	return nil
}

// evalConsts checks a tuple against the locally held pattern constants of
// every rule and returns the rules that fail.
func (s *site) evalConsts(tid int64) ([]string, error) {
	if len(s.checks) == 0 {
		return nil, nil
	}
	t, ok := s.frag.Get(relation.TupleID(tid))
	if !ok {
		return nil, fmt.Errorf("vertical: site %d: evalConsts on missing tuple %d", s.id, tid)
	}
	var failed []string
	for ci := range s.checks {
		c := &s.checks[ci]
		for i, col := range c.cols {
			if t.Values[col] != c.values[i] {
				failed = append(failed, c.ruleID)
				break
			}
		}
	}
	return failed, nil
}

// resolve computes a plan node's eqid for a tuple. Base nodes read the
// attribute value from the fragment; composed nodes combine the buffered
// input eqids (locally computed or delivered). acquire allocates classes
// and bumps refcounts (insertion); plain resolution only looks up
// (deletion). The result is buffered for downstream consumers at this site.
func (s *site) resolve(tid int64, nid optimizer.NodeID, acquire bool) (int64, error) {
	node := s.plan.Node(nid)
	if int(node.Site) != int(s.id) {
		return 0, fmt.Errorf("vertical: site %d asked to resolve node %d owned by site %d", s.id, nid, node.Site)
	}
	var eq eqclass.EqID
	switch node.Kind {
	case optimizer.Base:
		t, ok := s.frag.Get(relation.TupleID(tid))
		if !ok {
			return 0, fmt.Errorf("vertical: site %d: resolve base %s on missing tuple %d", s.id, node.Attrs[0], tid)
		}
		v := t.Values[s.schema.MustIndex(node.Attrs[0])]
		h := s.base[node.Attrs[0]]
		if acquire {
			eq = h.Acquire(v)
		} else {
			id, ok := h.Lookup(v)
			if !ok {
				return 0, fmt.Errorf("vertical: site %d: base %s has no class for %q", s.id, node.Attrs[0], v)
			}
			eq = id
		}
	case optimizer.Composed:
		inputs, err := s.inputEqids(tid, node)
		if err != nil {
			return 0, err
		}
		h := s.hevs[node.ID]
		if acquire {
			eq = h.Acquire(inputs)
		} else {
			id, ok := h.Lookup(inputs)
			if !ok {
				return 0, fmt.Errorf("vertical: site %d: HEV %v has no class for tuple %d", s.id, node.Attrs, tid)
			}
			eq = id
		}
	}
	s.bufPut(tid, node.ID, int64(eq))
	return int64(eq), nil
}

// inputEqids assembles a composed node's input eqids into the site's
// reused scratch slice (valid until the next call).
func (s *site) inputEqids(tid int64, node optimizer.Node) ([]eqclass.EqID, error) {
	if cap(s.inScratch) < len(node.Inputs) {
		s.inScratch = make([]eqclass.EqID, len(node.Inputs))
	}
	inputs := s.inScratch[:len(node.Inputs)]
	m := s.buf[tid]
	for i, in := range node.Inputs {
		var v int64
		if int(in) < len(m) {
			v = m[in]
		}
		if v == 0 {
			return nil, fmt.Errorf("vertical: site %d: node %d missing input eqid from node %d for tuple %d",
				s.id, node.ID, in, tid)
		}
		inputs[i] = eqclass.EqID(v)
	}
	return inputs, nil
}

func (s *site) bufPut(tid int64, node optimizer.NodeID, eq int64) {
	m, ok := s.buf[tid]
	if !ok {
		if n := len(s.bufPool); n > 0 {
			m = s.bufPool[n-1]
			s.bufPool = s.bufPool[:n-1]
		} else {
			m = make([]int64, len(s.plan.Nodes))
		}
		s.buf[tid] = m
	}
	// Grafted plans grow past a pooled buffer's length; extend lazily.
	for len(m) <= int(node) {
		m = append(m, 0)
		s.buf[tid] = m
	}
	m[node] = eq
}

// applyRule runs the Fig. 4 case analysis at the rule's IDX site and
// maintains the IDX. For insertions the analysis precedes the IDX update;
// for deletions it precedes the removal — both exactly as in the paper.
func (s *site) applyRule(req batchRuleItem) (applyRuleResp, error) {
	x, ok := s.idx[req.Rule]
	if !ok {
		return applyRuleResp{}, fmt.Errorf("vertical: site %d holds no IDX for rule %s", s.id, req.Rule)
	}
	binding := s.plan.Bindings[req.Rule]
	m := s.buf[req.ID]
	var eqXRaw, eqBRaw int64
	if int(binding.XNode) < len(m) {
		eqXRaw = m[binding.XNode]
	}
	if int(binding.BNode) < len(m) {
		eqBRaw = m[binding.BNode]
	}
	if eqXRaw == 0 || eqBRaw == 0 {
		return applyRuleResp{}, fmt.Errorf("vertical: site %d: rule %s missing eqids for tuple %d (X:%v B:%v)",
			s.id, req.Rule, req.ID, eqXRaw != 0, eqBRaw != 0)
	}
	eqX, eqB := eqclass.EqID(eqXRaw), eqclass.EqID(eqBRaw)
	tid := relation.TupleID(req.ID)

	var resp applyRuleResp
	switch req.Op {
	case OpInsert:
		distinct := x.DistinctB(eqX)
		classSize := x.ClassSize(eqX, eqB)
		switch {
		case classSize > 0:
			// t joins an existing class: it is a violation iff the
			// group already had ≥ 2 distinct B values (incVIns line 2;
			// line 5 otherwise).
			if distinct >= 2 {
				resp.Added = []int64{req.ID}
			}
		case distinct >= 2:
			// Group already violating: t is the only new violation.
			resp.Added = []int64{req.ID}
		case distinct == 1:
			// t disagrees with the single existing class: t and the
			// whole class become violations (incVIns line 4).
			resp.Added = append([]int64{req.ID}, toInt64s(x.OtherClassMembers(eqX, eqB))...)
		}
		x.Insert(eqX, eqB, tid)
	case OpDelete:
		distinct := x.DistinctB(eqX)
		classSize := x.ClassSize(eqX, eqB)
		switch {
		case classSize > 1:
			// Tuples equal to t on X and B remain: only t's status can
			// change (incVDel lines 2–4).
			if distinct >= 2 {
				resp.Removed = []int64{req.ID}
			}
		case distinct-1 >= 2:
			// t's class disappears but ≥ 2 classes remain violating.
			resp.Removed = []int64{req.ID}
		case distinct-1 == 1:
			// One class remains: its members lose their last
			// disagreeing partner (incVDel line 7).
			resp.Removed = append([]int64{req.ID}, toInt64s(x.OtherClassMembers(eqX, eqB))...)
		}
		if err := x.Delete(eqX, eqB, tid); err != nil {
			return applyRuleResp{}, err
		}
	}
	return resp, nil
}

// release drops the reference counts a deleted tuple held on a node.
func (s *site) release(req batchReleaseItem) error {
	node := s.plan.Node(optimizer.NodeID(req.Node))
	switch node.Kind {
	case optimizer.Base:
		t, ok := s.frag.Get(relation.TupleID(req.ID))
		if !ok {
			return fmt.Errorf("vertical: site %d: release base %s on missing tuple %d", s.id, node.Attrs[0], req.ID)
		}
		return s.base[node.Attrs[0]].Release(t.Values[s.schema.MustIndex(node.Attrs[0])])
	case optimizer.Composed:
		inputs, err := s.inputEqids(req.ID, node)
		if err != nil {
			return err
		}
		return s.hevs[node.ID].Release(inputs)
	}
	return nil
}

// endUpdate clears the tuple's eqid buffer, returning it to the pool.
func (s *site) endUpdate(tid int64) {
	if m, ok := s.buf[tid]; ok {
		for i := range m {
			m[i] = 0
		}
		s.bufPool = append(s.bufPool, m)
		delete(s.buf, tid)
	}
}

// --- the handlers: each processes a whole wave's items in one dispatch,
// looping over the per-item bodies above.

// batchFrag applies a wave's fragment projections/removals in wave order.
func (s *site) batchFrag(req batchFragReq) (empty, error) {
	for _, item := range req.Items {
		if err := s.apply(item); err != nil {
			return empty{}, err
		}
	}
	return empty{}, nil
}

// batchEval checks the local pattern constants for every listed tuple.
func (s *site) batchEval(req batchEvalReq) (batchEvalResp, error) {
	resp := batchEvalResp{Failed: make([][]string, len(req.IDs))}
	for i, id := range req.IDs {
		failed, err := s.evalConsts(id)
		if err != nil {
			return batchEvalResp{}, err
		}
		resp.Failed[i] = failed
	}
	return resp, nil
}

// batchVote is the receipt of a wave's constant-rule match notices (Fig. 5
// line 6); state-free: the coordinator's applyConst decides from its own
// fragment.
func (s *site) batchVote(batchVoteReq) (empty, error) { return empty{}, nil }

// batchConst classifies every listed tuple against its constant rule.
func (s *site) batchConst(req batchConstReq) (batchConstResp, error) {
	resp := batchConstResp{Violations: make([]bool, len(req.Items))}
	for i, item := range req.Items {
		violation, err := s.applyConst(item)
		if err != nil {
			return batchConstResp{}, err
		}
		resp.Violations[i] = violation
	}
	return resp, nil
}

// batchResolve resolves one stage's nodes hosted here, group by group in
// request order, returning the eqids flat in the same order.
func (s *site) batchResolve(req batchResolveReq) (batchResolveResp, error) {
	n := 0
	for _, g := range req.Groups {
		n += len(g.Items)
	}
	resp := batchResolveResp{Eqs: make([]int64, 0, n)}
	for _, g := range req.Groups {
		for _, item := range g.Items {
			eq, err := s.resolve(item.ID, optimizer.NodeID(g.Node), item.Acquire)
			if err != nil {
				return batchResolveResp{}, err
			}
			resp.Eqs = append(resp.Eqs, eq)
		}
	}
	return resp, nil
}

// batchDeliver buffers a coalesced eqid shipment.
func (s *site) batchDeliver(req batchDeliverReq) (empty, error) {
	for _, item := range req.Items {
		s.bufPut(item.ID, optimizer.NodeID(item.Node), item.Eq)
	}
	return empty{}, nil
}

// batchRule runs the wave's Fig. 4 case analyses at this IDX site, in
// item order (the order the driver replays the per-item ∆Vs in).
func (s *site) batchRule(req batchRuleReq) (batchRuleResp, error) {
	resp := batchRuleResp{Items: make([]applyRuleResp, len(req.Items))}
	for i, item := range req.Items {
		r, err := s.applyRule(item)
		if err != nil {
			return batchRuleResp{}, err
		}
		resp.Items[i] = r
	}
	return resp, nil
}

// batchRelease undoes the wave's reference counts.
func (s *site) batchRelease(req batchReleaseReq) (empty, error) {
	for _, item := range req.Items {
		if err := s.release(item); err != nil {
			return empty{}, err
		}
	}
	return empty{}, nil
}

// batchEnd clears the wave's eqid buffers.
func (s *site) batchEnd(req batchEndReq) (empty, error) {
	for _, id := range req.IDs {
		s.endUpdate(id)
	}
	return empty{}, nil
}

// barrier is the end-of-batch marker; state-free.
func (s *site) barrier(barrierReq) (empty, error) { return empty{}, nil }

// applyConst classifies a tuple against a constant rule at the site
// owning B. The driver only calls it once every constant-owning site has
// confirmed the tuple matches tp[X].
func (s *site) applyConst(req batchConstItem) (bool, error) {
	rule, ok := s.rules[req.Rule]
	if !ok {
		return false, fmt.Errorf("vertical: site %d: unknown rule %s", s.id, req.Rule)
	}
	t, ok := s.frag.Get(relation.TupleID(req.ID))
	if !ok {
		return false, fmt.Errorf("vertical: site %d: applyConst on missing tuple %d", s.id, req.ID)
	}
	b := t.Values[s.schema.MustIndex(rule.RHS)]
	return b != rule.RHSPattern, nil
}

// shipCols returns the site's columns relevant to a rule for batVer: the
// tuple id plus every locally held attribute of X ∪ {B}. The shipping
// site only projects columns — pattern evaluation happens at the
// coordinator, as in the batch baseline's "copy the relevant attributes
// to a coordinator site" step.
func (s *site) shipCols(req shipColsReq) (shipColsResp, error) {
	rule, ok := s.rules[req.Rule]
	if !ok {
		return shipColsResp{}, fmt.Errorf("vertical: site %d: unknown rule %s", s.id, req.Rule)
	}
	var attrs []string
	var cols []int
	for _, a := range rule.Attrs() {
		if col, ok := s.schema.Index(a); ok {
			attrs = append(attrs, a)
			cols = append(cols, col)
		}
	}
	resp := shipColsResp{Attrs: attrs}
	if len(attrs) == 0 {
		return resp, nil
	}
	s.frag.Each(func(t relation.Tuple) bool {
		vals := make([]string, len(cols))
		for i, col := range cols {
			vals[i] = t.Values[col]
		}
		resp.Rows = append(resp.Rows, colRow{ID: int64(t.ID), Vals: vals})
		return true
	})
	return resp, nil
}

// register wires every handler into the cluster.
func (s *site) register(c *network.Cluster) {
	network.RegisterFunc(c, s.id, "v.barrier", s.barrier)
	network.RegisterFunc(c, s.id, "v.batchFrag", s.batchFrag)
	network.RegisterFunc(c, s.id, "v.batchEval", s.batchEval)
	network.RegisterFunc(c, s.id, "v.batchVote", s.batchVote)
	network.RegisterFunc(c, s.id, "v.batchConst", s.batchConst)
	network.RegisterFunc(c, s.id, "v.batchResolve", s.batchResolve)
	network.RegisterFunc(c, s.id, "v.batchDeliver", s.batchDeliver)
	network.RegisterFunc(c, s.id, "v.batchRule", s.batchRule)
	network.RegisterFunc(c, s.id, "v.batchRelease", s.batchRelease)
	network.RegisterFunc(c, s.id, "v.batchEnd", s.batchEnd)
	network.RegisterFunc(c, s.id, "v.shipCols", s.shipCols)
	network.RegisterFunc(c, s.id, "v.addRules", s.addRules)
	network.RegisterFunc(c, s.id, "v.dropRules", s.vDropRules)
	network.RegisterFunc(c, s.id, "v.listIDs", s.listIDs)
}
