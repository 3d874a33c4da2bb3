package horizontal

import (
	"bytes"
	"crypto/md5"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/relation"
)

// hClass is one equivalence class [t]_{X∪{B}} restricted to a site's
// fragment, with its violation flag. All members share (X, B) values, so
// they share violation status — the flag is per class, which is what makes
// every protocol step O(1).
type hClass struct {
	members map[relation.TupleID]struct{}
	inV     bool
}

// site is the per-fragment state of the horizontal detection system.
// Sites hold the schema-compiled form of every rule plus scratch buffers
// for grouping keys; handler dispatch is serialized per site by the
// cluster, so the scratch needs no locking.
type site struct {
	id     network.SiteID
	schema *relation.Schema
	frag   *relation.Relation
	// snapLen is the size of the last snapshot, the next one's buffer.
	snapLen int
	rules   map[string]*cfd.Compiled
	// ruleOrder lists the compiled rules in rule-set order, the
	// deterministic iteration order of the batched local phase.
	ruleOrder []*cfd.Compiled

	// groups: rule id → X code → B code → class.
	groups map[string]map[code]map[code]*hClass

	keyBuf   []byte    // grouping-key scratch
	bScratch [1]string // single-value projection scratch
}

func newSite(id network.SiteID, schema *relation.Schema, comp []cfd.Compiled) *site {
	s := &site{
		id:     id,
		schema: schema,
		frag:   relation.New(schema),
		rules:  make(map[string]*cfd.Compiled, len(comp)),
		groups: make(map[string]map[code]map[code]*hClass),
	}
	for i := range comp {
		r := &comp[i]
		s.rules[r.ID] = r
		s.ruleOrder = append(s.ruleOrder, r)
		if !r.ConstRHS {
			s.groups[r.ID] = make(map[code]map[code]*hClass)
		}
	}
	return s
}

func (s *site) group(rule string, dx code) map[code]*hClass {
	return s.groups[rule][dx]
}

func (s *site) classOf(rule string, dx, db code) *hClass {
	return s.groups[rule][dx][db]
}

func (s *site) ensureClass(rule string, dx, db code) *hClass {
	g, ok := s.groups[rule][dx]
	if !ok {
		g = make(map[code]*hClass)
		s.groups[rule][dx] = g
	}
	c, ok := g[db]
	if !ok {
		c = &hClass{members: make(map[relation.TupleID]struct{})}
		g[db] = c
	}
	return c
}

func (s *site) dropIfEmpty(rule string, dx, db code) {
	g := s.groups[rule][dx]
	if c, ok := g[db]; ok && len(c.members) == 0 {
		delete(g, db)
	}
	if len(g) == 0 {
		delete(s.groups[rule], dx)
	}
}

// apply stores or removes a tuple in the fragment.
func (s *site) apply(req applyReq) (empty, error) {
	switch req.Op {
	case OpInsert:
		if err := s.frag.Insert(relation.Tuple{ID: relation.TupleID(req.ID), Values: req.Values}); err != nil {
			return empty{}, err
		}
	case OpDelete:
		if _, err := s.frag.Delete(relation.TupleID(req.ID)); err != nil {
			return empty{}, err
		}
	}
	return empty{}, nil
}

// tupleKeys computes the MD5 codes of t[X] and t[B] under a compiled
// rule through the site's scratch buffer.
func (s *site) tupleKeys(r *cfd.Compiled, t relation.Tuple) (dx, db code) {
	s.keyBuf = t.AppendKey(s.keyBuf[:0], r.LHSCols)
	dx = md5.Sum(s.keyBuf)
	s.bScratch[0] = t.Values[r.RHSCol]
	s.keyBuf = relation.AppendKeyVals(s.keyBuf[:0], s.bScratch[:])
	return dx, md5.Sum(s.keyBuf)
}

// groupTouch is the site-local record of one (rule, X-group) the batch's
// local phase changed.
type groupTouch struct {
	rule *cfd.Compiled
	dx   code
	xRaw []string
	// preBs and preFlag snapshot the group at first touch: the local B
	// digests present before the batch and their shared violation flag.
	preBs   map[code]bool
	preFlag bool

	inserted, deleted []int64
	wasInV            []bool
}

// batchApply runs the whole batch's local phase at the owning site: for
// every owned update, in batch order, it maintains the fragment, checks
// constant rules and applies class-membership changes, recording the
// touched groups. Violation flags are NOT changed here — the driver
// decides every touched group's final flag from the aggregated evidence
// and settles it afterwards, so the flags a touch observes are exactly
// the pre-batch ones.
func (s *site) batchApply(req batchApplyReq) (batchApplyResp, error) {
	var resp batchApplyResp
	touched := make(map[string]map[code]*groupTouch)
	var order []*groupTouch
	for _, u := range req.Updates {
		t := relation.Tuple{ID: relation.TupleID(u.ID), Values: u.Values}
		if u.Op == OpInsert {
			if err := s.frag.Insert(t); err != nil {
				return batchApplyResp{}, err
			}
		}
		for _, r := range s.ruleOrder {
			if !r.MatchesLHS(t) {
				continue
			}
			if r.ConstRHS {
				if r.SingleViolation(t) {
					resp.Consts = append(resp.Consts, constMark{Rule: r.ID, ID: u.ID, Add: u.Op == OpInsert})
				}
				continue
			}
			dx, db := s.tupleKeys(r, t)
			byX, ok := touched[r.ID]
			if !ok {
				byX = make(map[code]*groupTouch)
				touched[r.ID] = byX
			}
			g, ok := byX[dx]
			if !ok {
				g = &groupTouch{rule: r, dx: dx, preBs: make(map[code]bool)}
				for bd, c := range s.group(r.ID, dx) {
					g.preBs[bd] = true
					g.preFlag = c.inV
				}
				if req.RawKeys {
					g.xRaw = make([]string, len(r.LHSCols))
					for i, col := range r.LHSCols {
						g.xRaw[i] = t.Values[col]
					}
				}
				byX[dx] = g
				order = append(order, g)
			}
			switch u.Op {
			case OpInsert:
				c := s.ensureClass(r.ID, dx, db)
				c.members[t.ID] = struct{}{}
				g.inserted = append(g.inserted, u.ID)
			case OpDelete:
				c := s.classOf(r.ID, dx, db)
				if c == nil {
					return batchApplyResp{}, fmt.Errorf("horizontal: site %d: delete of unindexed tuple %d (rule %s)", s.id, u.ID, r.ID)
				}
				if _, ok := c.members[t.ID]; !ok {
					return batchApplyResp{}, fmt.Errorf("horizontal: site %d: tuple %d not in its class (rule %s)", s.id, u.ID, r.ID)
				}
				delete(c.members, t.ID)
				g.deleted = append(g.deleted, u.ID)
				g.wasInV = append(g.wasInV, c.inV)
				s.dropIfEmpty(r.ID, dx, db)
			}
		}
		if u.Op == OpDelete {
			if _, err := s.frag.Delete(t.ID); err != nil {
				return batchApplyResp{}, err
			}
		}
	}

	resp.Groups = make([]touchedGroup, 0, len(order))
	for _, g := range order {
		tg := touchedGroup{
			Rule:          g.rule.ID,
			X:             append([]byte(nil), g.dx[:]...),
			XRaw:          g.xRaw,
			PreKnown:      len(g.preBs) > 0,
			PreFlag:       len(g.preBs) > 0 && g.preFlag,
			Inserted:      g.inserted,
			Deleted:       g.deleted,
			DeletedWasInV: g.wasInV,
		}
		post := s.group(g.rule.ID, g.dx)
		tg.PostBs = distinctDigests(post)
		if len(post) != len(g.preBs) {
			tg.Structural = true
		}
		for bd := range post {
			if !g.preBs[bd] {
				tg.Structural = true
				tg.NewB = true
				break
			}
		}
		resp.Groups = append(resp.Groups, tg)
	}
	return resp, nil
}

// distinctDigests returns up to two of a group's B digests, sorted; two
// digests mean "at least two", which alone decides the group violating.
func distinctDigests(g map[code]*hClass) [][]byte {
	digests := make([]code, 0, 2)
	for bd := range g {
		digests = append(digests, bd)
	}
	slices.SortFunc(digests, func(a, b code) int { return bytes.Compare(a[:], b[:]) })
	if len(digests) > 2 {
		digests = digests[:2]
	}
	out := make([][]byte, len(digests))
	for i, d := range digests {
		out[i] = append([]byte(nil), d[:]...)
	}
	return out
}

// forwardGroup receives an owner's group evidence at the relay site;
// state-free: the driver aggregates, exactly as with constant-rule votes.
func (s *site) forwardGroup(forwardGroupReq) (empty, error) { return empty{}, nil }

// probeGroup answers a coalesced probe: for each group item it reports
// the local evidence (classes present, shared flag, ≤ 2 distinct B
// digests) and — when the item is Decided, or the item's digests plus its
// own prove ≥ 2 distinct B values — promotes its classes inline,
// returning the flipped members. §6's probe semantics, for a whole wave of
// groups in one message.
func (s *site) probeGroup(req probeGroupReq) (probeGroupResp, error) {
	resp := probeGroupResp{Items: make([]probeGroupItemResp, 0, len(req.Items))}
	for _, item := range req.Items {
		dx := item.X.code()
		g := s.group(item.Rule, dx)
		ir := probeGroupItemResp{HasClasses: len(g) > 0}
		for _, c := range g {
			ir.Flag = c.inV
			break
		}
		ir.Bs = distinctDigests(g)
		if item.Decided || combinedDistinct(item.Bs, ir.Bs) >= 2 {
			for _, c := range g {
				if !c.inV {
					c.inV = true
					ir.Added = append(ir.Added, toInt64s(sortedMembers(c))...)
				}
			}
			ir.Promoted = true
			sort.Slice(ir.Added, func(i, j int) bool { return ir.Added[i] < ir.Added[j] })
		}
		resp.Items = append(resp.Items, ir)
	}
	return resp, nil
}

// combinedDistinct counts the distinct digests across two ≤2-element
// digest lists, capped at 2 (all a group decision ever needs).
func combinedDistinct(a, b [][]byte) int {
	if len(a) >= 2 || len(b) >= 2 {
		return 2
	}
	var distinct [][]byte
	for _, d := range [][][]byte{a, b} {
		for _, x := range d {
			dup := false
			for _, y := range distinct {
				if bytes.Equal(x, y) {
					dup = true
					break
				}
			}
			if !dup {
				distinct = append(distinct, x)
				if len(distinct) >= 2 {
					return 2
				}
			}
		}
	}
	return len(distinct)
}

// settleGroup pins each listed group's final violation flag, returning
// the members of classes that flipped. It serves both the same-site
// settles at touching owners and the coalesced cross-site demote round.
func (s *site) settleGroup(req settleGroupReq) (settleGroupResp, error) {
	resp := settleGroupResp{Items: make([]settleGroupItemResp, 0, len(req.Items))}
	for _, item := range req.Items {
		dx := item.X.code()
		var ir settleGroupItemResp
		for _, c := range s.group(item.Rule, dx) {
			if c.inV == item.Flag {
				continue
			}
			c.inV = item.Flag
			if item.Flag {
				ir.Added = append(ir.Added, toInt64s(sortedMembers(c))...)
			} else {
				ir.Removed = append(ir.Removed, toInt64s(sortedMembers(c))...)
			}
		}
		sort.Slice(ir.Added, func(i, j int) bool { return ir.Added[i] < ir.Added[j] })
		sort.Slice(ir.Removed, func(i, j int) bool { return ir.Removed[i] < ir.Removed[j] })
		resp.Items = append(resp.Items, ir)
	}
	return resp, nil
}

// shipMatching returns the site's (partial) tuples for a rule: the batHor
// shipment unit. Sites project each tuple onto X ∪ {B}; the coordinator
// evaluates the pattern, as in the batch baseline of Fan et al. (ICDE
// 2010) whose shipment is Θ(|D|) per rule.
func (s *site) shipMatching(req shipMatchingReq) (shipMatchingResp, error) {
	rule, ok := s.rules[req.Rule]
	if !ok {
		return shipMatchingResp{}, fmt.Errorf("horizontal: site %d: unknown rule %s", s.id, req.Rule)
	}
	var resp shipMatchingResp
	s.frag.Each(func(t relation.Tuple) bool {
		x := make([]string, len(rule.LHSCols))
		for i, col := range rule.LHSCols {
			x[i] = t.Values[col]
		}
		resp.Rows = append(resp.Rows, matchRow{
			ID: int64(t.ID),
			X:  x,
			B:  t.Values[rule.RHSCol],
		})
		return true
	})
	return resp, nil
}

// localDetect finds the site-local violations of one rule: used by batHor
// for rules that are locally checkable under the partition predicates.
func (s *site) localDetect(req localDetectReq) (localDetectResp, error) {
	rule, ok := s.rules[req.Rule]
	if !ok {
		return localDetectResp{}, fmt.Errorf("horizontal: site %d: unknown rule %s", s.id, req.Rule)
	}
	var resp localDetectResp
	if rule.ConstRHS {
		s.frag.Each(func(t relation.Tuple) bool {
			if rule.SingleViolation(t) {
				resp.IDs = append(resp.IDs, int64(t.ID))
			}
			return true
		})
		return resp, nil
	}
	type group struct {
		members   []int64
		firstB    string
		distinctB int
	}
	groups := make(map[string]*group)
	s.frag.Each(func(t relation.Tuple) bool {
		if !rule.MatchesLHS(t) {
			return true
		}
		s.keyBuf = t.AppendKey(s.keyBuf[:0], rule.LHSCols)
		b := t.Values[rule.RHSCol]
		g, ok := groups[string(s.keyBuf)]
		if !ok {
			groups[string(s.keyBuf)] = &group{members: []int64{int64(t.ID)}, firstB: b, distinctB: 1}
			return true
		}
		if g.distinctB == 1 && b != g.firstB {
			g.distinctB = 2
		}
		g.members = append(g.members, int64(t.ID))
		return true
	})
	for _, g := range groups {
		if g.distinctB > 1 {
			resp.IDs = append(resp.IDs, g.members...)
		}
	}
	sort.Slice(resp.IDs, func(i, j int) bool { return resp.IDs[i] < resp.IDs[j] })
	return resp, nil
}

func (s *site) register(c *network.Cluster) {
	network.RegisterFunc(c, s.id, "h.apply", s.apply)
	network.RegisterFunc(c, s.id, "h.batchApply", s.batchApply)
	network.RegisterFunc(c, s.id, "h.forwardGroup", s.forwardGroup)
	network.RegisterFunc(c, s.id, "h.probeGroup", s.probeGroup)
	network.RegisterFunc(c, s.id, "h.settleGroup", s.settleGroup)
	network.RegisterFunc(c, s.id, "h.shipMatching", s.shipMatching)
	network.RegisterFunc(c, s.id, "h.localDetect", s.localDetect)
	network.RegisterFunc(c, s.id, "h.seedRules", s.seedRules)
	network.RegisterFunc(c, s.id, "h.dropRules", s.dropRules)
}

func sortedMembers(c *hClass) []relation.TupleID {
	out := make([]relation.TupleID, 0, len(c.members))
	for id := range c.members {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
