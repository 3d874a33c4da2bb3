package vertical

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/cfd"
	"repro/internal/eqclass"
	"repro/internal/network"
	"repro/internal/optimizer"
	"repro/internal/relation"
	"repro/internal/xerr"
)

// siteRule is one rule in force as a site sees it, with everything a
// handler needs resolved against the fragment schema and the plan once.
// A rule's number — what every same-site call names it by — is its
// position in site.rules.
type siteRule struct {
	rule *cfd.CFD
	// cols and values are the pattern constants of the rule's LHS this
	// fragment holds: tuple column, required constant.
	cols   []int
	values []string
	// rhsCol is the fragment column of the rule's RHS, -1 when another
	// site holds it.
	rhsCol int
	// idx is the rule's IDX when this site hosts it (nil otherwise), fed
	// by the eqids of plan nodes xNode and bNode.
	idx          *eqclass.IDX
	xNode, bNode optimizer.NodeID
}

// siteNode is one plan node as its host site resolves it; the zero value
// marks a node hosted elsewhere.
type siteNode struct {
	// Base node: the attribute's HEV (shared by every base node of the
	// attribute here) and the fragment column it reads.
	base *eqclass.BaseHEV
	col  int
	// Composed node: its HEV and the nodes whose buffered eqids key it.
	hev    *eqclass.HEV
	inputs []optimizer.NodeID
}

func (n *siteNode) here() bool { return n.base != nil || n.hev != nil }

// site is the per-fragment state of the vertical detection system. All
// access goes through the methods below, dispatched by the cluster; the
// dispatch is serialized per site, so the scratch state (eqid buffer
// pool, input-eqid slice) needs no locking.
type site struct {
	id     network.SiteID
	schema *relation.Schema // fragment schema
	frag   *relation.Relation

	// plan is the site's own copy, decoded from its hello: rule grafts
	// and drops apply to it from the wire.
	plan *optimizer.Plan

	// rules are the rules in force, ascending by id; gen stamps that
	// numbering (ruleGen), checked lists the numbers of the rules with
	// local pattern constants and idxHere is the set of rules whose IDX is
	// here. All four change only in setRules.
	rules   []siteRule
	gen     uint32
	checked []int
	idxHere bitset

	// nodes mirrors plan.Nodes, extended whenever the plan is.
	nodes []siteNode
	base  map[string]*eqclass.BaseHEV // one per locally hosted base attribute

	// buf holds the per-tuple eqid buffer: one slot per plan node, 0 =
	// unset (eqids start at 1). Retired buffers are pooled, so steady
	// state updates allocate nothing here.
	buf     map[int64][]int64
	bufPool [][]int64
	// inScratch is the reused input-eqid slice for composed resolves.
	inScratch []eqclass.EqID
	// snapLen is the size of the last snapshot, the next one's buffer.
	snapLen int

	// reply holds the arrays the site's small replies are carved from,
	// one set per method, which its next call of the method carves again
	// (see replyKeep). No snapshot reads them.
	reply replyArrays
}

// replyArrays back the replies of v.batchEval (failed), v.batchConst
// (violations), v.batchResolve (eqs) and v.batchRule (the rest).
type replyArrays struct {
	failed, violations []uint64
	eqs, ids           []int64
	at, rules, counts  []int
}

// replyKeep bounds the reply arrays a site keeps between calls: a reply
// array of at most replyKeep elements is carved from the one the site
// kept from its last call of the method, so a stream of small waves
// allocates no reply; a longer one (a seeding wave of 128, a rule whose
// group turns violating at once) gets an array of its own, so the kept
// ones never grow past replyKeep.
const replyKeep = 64

// carve returns a reply array of n zeroed elements: *kept's when n fits
// replyKeep (the array is made, at that capacity, on first use), else a
// fresh one. A reply built by appending starts from carve(kept, 0) and
// moves to an array of its own once it outgrows the kept one.
func carve[T any](kept *[]T, n int) []T {
	if n > replyKeep {
		return make([]T, n)
	}
	if *kept == nil {
		*kept = make([]T, replyKeep)
	}
	out := (*kept)[:n]
	clear(out)
	return out
}

// newSite builds an empty site over plan and rules. Both may come off the
// wire (a hello), so both are checked.
func newSite(id network.SiteID, schema *relation.Schema, plan *optimizer.Plan, rules []cfd.CFD) (*site, error) {
	s := &site{
		id:     id,
		schema: schema,
		frag:   relation.New(schema),
		plan:   plan,
		base:   make(map[string]*eqclass.BaseHEV),
		buf:    make(map[int64][]int64),
	}
	if err := s.checkNodes(plan.Nodes); err != nil {
		return nil, err
	}
	if err := s.checkRules(rules); err != nil {
		return nil, err
	}
	s.installNodes()
	s.setRules(s.resolveRules(rules))
	return s, nil
}

// refuse is the error a handler answers a malformed call with.
func (s *site) refuse(method, format string, args ...any) error {
	return fmt.Errorf("vertical: site %d: %s: "+format, append([]any{s.id, method}, args...)...)
}

// checkNodes reports whether this site can host its share of nodes (plan
// nodes already structurally valid, see optimizer.Plan.Validate): a base
// node here must read an attribute of the fragment.
func (s *site) checkNodes(nodes []optimizer.Node) error {
	for _, n := range nodes {
		if n.Site == int(s.id) && n.Kind == optimizer.Base {
			if _, ok := s.schema.Index(n.Attrs[0]); !ok {
				return fmt.Errorf("vertical: site %d: base node %d reads %q, which the fragment does not hold: %w",
					s.id, n.ID, n.Attrs[0], xerr.ErrUnknownAttribute)
			}
		}
	}
	return nil
}

// installNodes extends the node table over the plan nodes it does not
// cover yet (checked by checkNodes), creating the HEVs hosted here.
func (s *site) installNodes() {
	for _, n := range s.plan.Nodes[len(s.nodes):] {
		var sn siteNode
		if n.Site == int(s.id) {
			switch n.Kind {
			case optimizer.Base:
				attr := n.Attrs[0]
				if s.base[attr] == nil {
					s.base[attr] = eqclass.NewBaseHEV(attr)
				}
				sn = siteNode{base: s.base[attr], col: s.schema.MustIndex(attr)}
			case optimizer.Composed:
				sn = siteNode{hev: eqclass.NewHEV(n.Attrs), inputs: n.Inputs}
			}
		}
		s.nodes = append(s.nodes, sn)
	}
	// Pooled eqid buffers were sized to the old node count; drop them so
	// bufPut sizes fresh ones.
	s.bufPool = nil
}

// checkRules reports whether rules can join the rules in force: no id
// taken, every pattern aligned with its attribute list.
func (s *site) checkRules(rules []cfd.CFD) error {
	for i := range rules {
		r := &rules[i]
		if len(r.LHS) != len(r.LHSPattern) {
			return fmt.Errorf("vertical: site %d: rule %q has %d LHS attributes and %d patterns: %w",
				s.id, r.ID, len(r.LHS), len(r.LHSPattern), xerr.ErrArityMismatch)
		}
		_, dup := s.ruleNo(r.ID)
		for _, earlier := range rules[:i] {
			dup = dup || earlier.ID == r.ID
		}
		if dup {
			return fmt.Errorf("vertical: site %d: rule %q already in force: %w", s.id, r.ID, xerr.ErrDuplicateRule)
		}
	}
	return nil
}

// resolveRules resolves rules (passed by checkRules) against the fragment
// schema and the plan, already grafted with their bindings, creating the
// IDXes hosted here.
func (s *site) resolveRules(rules []cfd.CFD) []siteRule {
	out := make([]siteRule, len(rules))
	for i := range rules {
		r := rules[i]
		sr := siteRule{rule: &r, rhsCol: -1}
		sr.cols, sr.values = constChecksFor(s.schema, &r)
		if col, ok := s.schema.Index(r.RHS); ok {
			sr.rhsCol = col
		}
		if b, ok := s.plan.Bindings[r.ID]; ok && b.IDXSite == int(s.id) {
			sr.idx, sr.xNode, sr.bNode = eqclass.NewIDX(), b.XNode, b.BNode
		}
		out[i] = sr
	}
	return out
}

// constChecksFor returns r's pattern-constant checks over a fragment
// schema: one (column, constant) pair per non-wildcard LHS pattern on an
// attribute the fragment holds. The site checks r iff there is at least
// one — the predicate System.indexRules derives the checker sites from.
func constChecksFor(schema *relation.Schema, r *cfd.CFD) (cols []int, values []string) {
	for li, a := range r.LHS {
		if r.LHSPattern[li] == cfd.Wildcard {
			continue
		}
		if col, ok := schema.Index(a); ok {
			cols = append(cols, col)
			values = append(values, r.LHSPattern[li])
		}
	}
	return cols, values
}

// setRules puts rules in force: sorted by id, which numbers them, with
// the generation stamp and the checker list that follow from the order.
func (s *site) setRules(rules []siteRule) {
	sort.Slice(rules, func(i, j int) bool { return rules[i].rule.ID < rules[j].rule.ID })
	s.rules = rules
	ids := make([]string, len(rules))
	s.checked = s.checked[:0]
	s.idxHere = make(bitset, words(len(rules)))
	for no := range rules {
		ids[no] = rules[no].rule.ID
		if len(rules[no].cols) > 0 {
			s.checked = append(s.checked, no)
		}
		if rules[no].idx != nil {
			s.idxHere.set(no)
		}
	}
	s.gen = ruleGen(ids)
}

// ruleNo returns the number of the rule with the given id.
func (s *site) ruleNo(id string) (int, bool) {
	no := sort.Search(len(s.rules), func(i int) bool { return s.rules[i].rule.ID >= id })
	return no, no < len(s.rules) && s.rules[no].rule.ID == id
}

// checkGen refuses a call coded under another rule numbering.
func (s *site) checkGen(method string, gen uint32) error {
	if gen != s.gen {
		return s.refuse(method, "call coded under rule set %08x, site holds %08x: %w", gen, s.gen, xerr.ErrRuleSetSkew)
	}
	return nil
}

// hostedNodes checks a call's node list: every node in the plan and
// hosted here.
func (s *site) hostedNodes(method string, nodes []int) error {
	for _, n := range nodes {
		if n < 0 || n >= len(s.nodes) {
			return s.refuse(method, "node %d of a %d-node plan", n, len(s.nodes))
		}
		if !s.nodes[n].here() {
			return s.refuse(method, "node %d is hosted at site %d", n, s.plan.Nodes[n].Site)
		}
	}
	return nil
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

// resolve computes a node's eqid for a tuple. Base nodes read the
// attribute value from the fragment; composed nodes combine the buffered
// input eqids (locally computed or delivered). acquire allocates classes
// and bumps refcounts (insertion); plain resolution only looks up
// (deletion). The result is buffered for downstream consumers at this site.
func (s *site) resolve(tid int64, nid int, acquire bool) (int64, error) {
	node := &s.nodes[nid]
	var eq eqclass.EqID
	if node.base != nil {
		t, ok := s.frag.Get(relation.TupleID(tid))
		if !ok {
			return 0, fmt.Errorf("vertical: site %d: resolve base %s on missing tuple %d", s.id, node.base.Attr, tid)
		}
		v := t.Values[node.col]
		if acquire {
			eq = node.base.Acquire(v)
		} else if eq, ok = node.base.Lookup(v); !ok {
			return 0, fmt.Errorf("vertical: site %d: base %s has no class for %q", s.id, node.base.Attr, v)
		}
	} else {
		inputs, err := s.inputEqids(tid, nid)
		if err != nil {
			return 0, err
		}
		if acquire {
			eq = node.hev.Acquire(inputs)
		} else {
			var ok bool
			if eq, ok = node.hev.Lookup(inputs); !ok {
				return 0, fmt.Errorf("vertical: site %d: HEV %v has no class for tuple %d", s.id, node.hev.Attrs, tid)
			}
		}
	}
	s.bufPut(tid, nid, int64(eq))
	return int64(eq), nil
}

// inputEqids assembles a composed node's input eqids into the site's
// reused scratch slice (valid until the next call).
func (s *site) inputEqids(tid int64, nid int) ([]eqclass.EqID, error) {
	ins := s.nodes[nid].inputs
	if cap(s.inScratch) < len(ins) {
		s.inScratch = make([]eqclass.EqID, len(ins))
	}
	inputs := s.inScratch[:len(ins)]
	m := s.buf[tid]
	for i, in := range ins {
		var v int64
		if int(in) < len(m) {
			v = m[in]
		}
		if v == 0 {
			return nil, fmt.Errorf("vertical: site %d: node %d missing input eqid from node %d for tuple %d",
				s.id, nid, in, tid)
		}
		inputs[i] = eqclass.EqID(v)
	}
	return inputs, nil
}

// bufPut buffers node's eqid for a tuple; node is within the node table.
func (s *site) bufPut(tid int64, node int, eq int64) {
	m, ok := s.buf[tid]
	if !ok {
		if n := len(s.bufPool); n > 0 {
			m = s.bufPool[n-1]
			s.bufPool = s.bufPool[:n-1]
		} else {
			m = make([]int64, len(s.nodes))
		}
		s.buf[tid] = m
	}
	// A buffer opened before a graft is shorter than the table; extend.
	for len(m) <= node {
		m = append(m, 0)
		s.buf[tid] = m
	}
	m[node] = eq
}

// applyRule runs the Fig. 4 case analysis for one tuple at the rule's IDX
// and maintains the IDX, appending the rule's local ∆V — the tuples that
// become violations (insert) or stop being ones (delete) — to dst. For
// insertions the analysis precedes the IDX update; for deletions it
// precedes the removal — both exactly as in the paper.
func (s *site) applyRule(r *siteRule, id int64, insert bool, dst []int64) ([]int64, error) {
	x := r.idx
	m := s.buf[id]
	var eqXRaw, eqBRaw int64
	if int(r.xNode) < len(m) {
		eqXRaw = m[r.xNode]
	}
	if int(r.bNode) < len(m) {
		eqBRaw = m[r.bNode]
	}
	if eqXRaw == 0 || eqBRaw == 0 {
		return dst, fmt.Errorf("vertical: site %d: rule %s missing eqids for tuple %d (X:%v B:%v)",
			s.id, r.rule.ID, id, eqXRaw != 0, eqBRaw != 0)
	}
	eqX, eqB := eqclass.EqID(eqXRaw), eqclass.EqID(eqBRaw)
	tid := relation.TupleID(id)
	distinct := x.DistinctB(eqX)
	classSize := x.ClassSize(eqX, eqB)

	if insert {
		switch {
		case classSize > 0:
			// t joins an existing class: it is a violation iff the
			// group already had ≥ 2 distinct B values (incVIns line 2;
			// line 5 otherwise).
			if distinct >= 2 {
				dst = append(dst, id)
			}
		case distinct >= 2:
			// Group already violating: t is the only new violation.
			dst = append(dst, id)
		case distinct == 1:
			// t disagrees with the single existing class: t and the
			// whole class become violations (incVIns line 4).
			dst = appendIDs(append(dst, id), x.OtherClassMembers(eqX, eqB))
		}
		x.Insert(eqX, eqB, tid)
		return dst, nil
	}
	switch {
	case classSize > 1:
		// Tuples equal to t on X and B remain: only t's status can
		// change (incVDel lines 2–4).
		if distinct >= 2 {
			dst = append(dst, id)
		}
	case distinct-1 >= 2:
		// t's class disappears but ≥ 2 classes remain violating.
		dst = append(dst, id)
	case distinct-1 == 1:
		// One class remains: its members lose their last
		// disagreeing partner (incVDel line 7).
		dst = appendIDs(append(dst, id), x.OtherClassMembers(eqX, eqB))
	}
	return dst, x.Delete(eqX, eqB, tid)
}

func appendIDs(dst []int64, ids []relation.TupleID) []int64 {
	for _, id := range ids {
		dst = append(dst, int64(id))
	}
	return dst
}

// release drops the reference counts a deleted tuple held on a node.
func (s *site) release(tid int64, nid int) error {
	node := &s.nodes[nid]
	if node.base != nil {
		t, ok := s.frag.Get(relation.TupleID(tid))
		if !ok {
			return fmt.Errorf("vertical: site %d: release base %s on missing tuple %d", s.id, node.base.Attr, tid)
		}
		return node.base.Release(t.Values[node.col])
	}
	inputs, err := s.inputEqids(tid, nid)
	if err != nil {
		return err
	}
	return node.hev.Release(inputs)
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

// --- the handlers: each processes a whole wave's columns in one dispatch.

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
// A small reply shares the site's kept arrays (replyKeep): it is good
// until the site's next v.batchEval, as are those of v.batchConst,
// v.batchResolve and v.batchRule.
func (s *site) batchEval(req batchEvalReq) (batchEvalResp, error) {
	if err := s.checkGen("v.batchEval", req.Gen); err != nil {
		return batchEvalResp{}, err
	}
	w := words(len(s.rules))
	resp := batchEvalResp{Failed: carve(&s.reply.failed, len(req.IDs)*w)}
	if len(s.checked) == 0 {
		return resp, nil
	}
	for i, id := range req.IDs {
		t, ok := s.frag.Get(relation.TupleID(id))
		if !ok {
			return batchEvalResp{}, fmt.Errorf("vertical: site %d: evalConsts on missing tuple %d", s.id, id)
		}
		failed := bitset(resp.Failed[i*w : (i+1)*w])
		for _, no := range s.checked {
			r := &s.rules[no]
			for k, col := range r.cols {
				if t.Values[col] != r.values[k] {
					failed.set(no)
					break
				}
			}
		}
	}
	return resp, nil
}

// batchVote is the receipt of a wave's constant-rule match notices (Fig. 5
// line 6); state-free: the coordinator's batchConst decides from its own
// fragment.
func (s *site) batchVote(batchVoteReq) (empty, error) { return empty{}, nil }

// batchConst classifies every listed tuple against the constant rules
// asked for it. The driver only asks once every constant-owning site has
// confirmed the tuple matches tp[X].
func (s *site) batchConst(req batchConstReq) (batchConstResp, error) {
	const method = "v.batchConst"
	if err := s.checkGen(method, req.Gen); err != nil {
		return batchConstResp{}, err
	}
	if !validRows(req.Rules, len(req.IDs), len(s.rules)) {
		return batchConstResp{}, s.refuse(method, "%d rule-set words for %d tuples under %d rules", len(req.Rules), len(req.IDs), len(s.rules))
	}
	w := words(len(s.rules))
	resp := batchConstResp{Violations: carve(&s.reply.violations, len(req.Rules))}
	for i, id := range req.IDs {
		row := req.Rules[i*w : (i+1)*w]
		if bitset(row).empty() {
			continue
		}
		t, ok := s.frag.Get(relation.TupleID(id))
		if !ok {
			return batchConstResp{}, fmt.Errorf("vertical: site %d: applyConst on missing tuple %d", s.id, id)
		}
		for wi, word := range row {
			for ; word != 0; word &= word - 1 {
				no := wi<<6 + bits.TrailingZeros64(word)
				r := &s.rules[no]
				if !r.rule.IsConstant() || r.rhsCol < 0 {
					return batchConstResp{}, s.refuse(method, "rule %s is not a constant rule coordinated here", r.rule.ID)
				}
				if t.Values[r.rhsCol] != r.rule.RHSPattern {
					resp.Violations[i*w+wi] |= word & -word
				}
			}
		}
	}
	return resp, nil
}

// batchResolve resolves one stage's nodes hosted here, node by node in
// request order, returning the eqids flat in the same order.
func (s *site) batchResolve(req batchResolveReq) (batchResolveResp, error) {
	const method = "v.batchResolve"
	if !validRows(req.Ins, 1, len(req.IDs)) || !validRows(req.Members, len(req.Nodes), len(req.IDs)) {
		return batchResolveResp{}, s.refuse(method, "%d op and %d member words for %d nodes over %d tuples",
			len(req.Ins), len(req.Members), len(req.Nodes), len(req.IDs))
	}
	if err := s.hostedNodes(method, req.Nodes); err != nil {
		return batchResolveResp{}, err
	}
	n := 0
	for _, word := range req.Members {
		n += bits.OnesCount64(word)
	}
	resp := batchResolveResp{Eqs: carve(&s.reply.eqs, n)[:0]}
	w := words(len(req.IDs))
	for k, node := range req.Nodes {
		for wi, word := range req.Members[k*w : (k+1)*w] {
			for ; word != 0; word &= word - 1 {
				eq, err := s.resolve(req.IDs[wi<<6+bits.TrailingZeros64(word)], node, req.Ins[wi]&word&-word != 0)
				if err != nil {
					return batchResolveResp{}, err
				}
				resp.Eqs = append(resp.Eqs, eq)
			}
		}
	}
	return resp, nil
}

// batchDeliver buffers a coalesced eqid shipment.
func (s *site) batchDeliver(req batchDeliverReq) (empty, error) {
	for _, item := range req.Items {
		if item.Node < 0 || item.Node >= len(s.nodes) {
			return empty{}, s.refuse("v.batchDeliver", "node %d of a %d-node plan", item.Node, len(s.nodes))
		}
	}
	for _, item := range req.Items {
		s.bufPut(item.ID, item.Node, item.Eq)
	}
	return empty{}, nil
}

// batchRule runs the wave's Fig. 4 case analyses at this IDX site: the
// tuples in request order and, per tuple, its alive rules hosted here in
// ascending rule number — the order the reply lists the non-empty ∆Vs in.
func (s *site) batchRule(req batchRuleReq) (batchRuleResp, error) {
	const method = "v.batchRule"
	if err := s.checkGen(method, req.Gen); err != nil {
		return batchRuleResp{}, err
	}
	if !validRows(req.Ins, 1, len(req.IDs)) || !validRows(req.Alive, len(req.IDs), len(s.rules)) {
		return batchRuleResp{}, s.refuse(method, "%d op and %d rule-set words for %d tuples under %d rules",
			len(req.Ins), len(req.Alive), len(req.IDs), len(s.rules))
	}
	r := &s.reply
	resp := batchRuleResp{At: carve(&r.at, 0), Rules: carve(&r.rules, 0), Counts: carve(&r.counts, 0), IDs: carve(&r.ids, 0)}
	w := words(len(s.rules))
	for i, id := range req.IDs {
		insert := bitset(req.Ins).has(i)
		for wi, word := range req.Alive[i*w : (i+1)*w] {
			// The other alive rules have their IDX at another site.
			for word &= s.idxHere[wi]; word != 0; word &= word - 1 {
				no := wi<<6 + bits.TrailingZeros64(word)
				before := len(resp.IDs)
				var err error
				if resp.IDs, err = s.applyRule(&s.rules[no], id, insert, resp.IDs); err != nil {
					return batchRuleResp{}, err
				}
				if n := len(resp.IDs) - before; n > 0 {
					resp.At = append(resp.At, i)
					resp.Rules = append(resp.Rules, no)
					resp.Counts = append(resp.Counts, n)
				}
			}
		}
	}
	return resp, nil
}

// batchRelease undoes the wave's reference counts.
func (s *site) batchRelease(req batchReleaseReq) (empty, error) {
	const method = "v.batchRelease"
	if !validRows(req.Members, len(req.Nodes), len(req.IDs)) {
		return empty{}, s.refuse(method, "%d member words for %d nodes over %d tuples", len(req.Members), len(req.Nodes), len(req.IDs))
	}
	if err := s.hostedNodes(method, req.Nodes); err != nil {
		return empty{}, err
	}
	w := words(len(req.IDs))
	for k, node := range req.Nodes {
		for wi, word := range req.Members[k*w : (k+1)*w] {
			for ; word != 0; word &= word - 1 {
				if err := s.release(req.IDs[wi<<6+bits.TrailingZeros64(word)], node); err != nil {
					return empty{}, err
				}
			}
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

// shipCols returns the site's columns relevant to a rule for batVer: the
// tuple id plus every locally held attribute of X ∪ {B}. The shipping
// site only projects columns — pattern evaluation happens at the
// coordinator, as in the batch baseline's "copy the relevant attributes
// to a coordinator site" step.
func (s *site) shipCols(req shipColsReq) (shipColsResp, error) {
	no, ok := s.ruleNo(req.Rule)
	if !ok {
		return shipColsResp{}, fmt.Errorf("vertical: site %d: unknown rule %s", s.id, req.Rule)
	}
	var attrs []string
	var cols []int
	for _, a := range s.rules[no].rule.Attrs() {
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
	network.RegisterFunc(c, s.id, mBarrier, s.barrier)
	network.RegisterFunc(c, s.id, mBatchFrag, s.batchFrag)
	network.RegisterFunc(c, s.id, mBatchEval, s.batchEval)
	network.RegisterFunc(c, s.id, mBatchVote, s.batchVote)
	network.RegisterFunc(c, s.id, mBatchConst, s.batchConst)
	network.RegisterFunc(c, s.id, mBatchResolve, s.batchResolve)
	network.RegisterFunc(c, s.id, mBatchDeliver, s.batchDeliver)
	network.RegisterFunc(c, s.id, mBatchRule, s.batchRule)
	network.RegisterFunc(c, s.id, mBatchRelease, s.batchRelease)
	network.RegisterFunc(c, s.id, mBatchEnd, s.batchEnd)
	network.RegisterFunc(c, s.id, mShipCols, s.shipCols)
	network.RegisterFunc(c, s.id, mAddRules, s.addRules)
	network.RegisterFunc(c, s.id, mDropRules, s.vDropRules)
	network.RegisterFunc(c, s.id, mListIDs, s.listIDs)
}
