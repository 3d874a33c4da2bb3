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
	members []relation.TupleID // ascending
	inV     bool
	// fresh marks a class the running h.batchApply call created; the call
	// clears it before it returns, so between calls no class has it set.
	fresh bool
}

// add inserts id into the class, keeping members ascending.
func (c *hClass) add(id relation.TupleID) {
	if i, found := slices.BinarySearch(c.members, id); !found {
		c.members = slices.Insert(c.members, i, id)
	}
}

// remove deletes id from the class, reporting whether it was a member.
func (c *hClass) remove(id relation.TupleID) bool {
	i, found := slices.BinarySearch(c.members, id)
	if found {
		c.members = slices.Delete(c.members, i, i+1)
	}
	return found
}

// siteRule is one installed rule with its class index: X code → B code →
// class (nil under a constant rule).
type siteRule struct {
	*cfd.Compiled
	groups map[code]map[code]*hClass
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
	rules   map[string]*siteRule
	// ruleOrder lists the rules in rule-set order, the deterministic
	// iteration order of the batched local phase.
	ruleOrder []*siteRule

	keyBuf   []byte    // grouping-key scratch
	bScratch [1]string // single-value projection scratch
	codes    []code    // the item keys of one probe or settle

	// The touch table of the running h.batchApply call, kept for the next
	// one (see touchKeep): touch indexes touches by (rule, X code), events
	// are the call's member changes in batch order.
	touch   map[touchKey]int32
	touches []groupTouch
	events  []touchEvent
}

func newSite(id network.SiteID, schema *relation.Schema, comp []cfd.Compiled) *site {
	s := &site{
		id:     id,
		schema: schema,
		frag:   relation.New(schema),
		rules:  make(map[string]*siteRule, len(comp)),
	}
	for i := range comp {
		s.install(&comp[i])
	}
	return s
}

// install appends a compiled rule, with an empty class index, to the
// site's rule set.
func (s *site) install(c *cfd.Compiled) {
	r := &siteRule{Compiled: c}
	if !c.ConstRHS {
		r.groups = make(map[code]map[code]*hClass)
	}
	s.rules[c.ID] = r
	s.ruleOrder = append(s.ruleOrder, r)
}

// group returns the classes of one (rule, X) group; none for a rule the
// site does not hold.
func (s *site) group(rule string, dx code) map[code]*hClass {
	if r := s.rules[rule]; r != nil {
		return r.groups[dx]
	}
	return nil
}

// ensureClass returns the class of (dx, db), creating it — and its group —
// when absent.
func (r *siteRule) ensureClass(dx, db code) (c *hClass, created bool) {
	g, ok := r.groups[dx]
	if !ok {
		g = make(map[code]*hClass, 1)
		r.groups[dx] = g
	}
	if c, ok = g[db]; !ok {
		c = &hClass{}
		g[db] = c
	}
	return c, !ok
}

// refuse is the error a handler answers a malformed call with.
func (s *site) refuse(method, format string, args ...any) error {
	return fmt.Errorf("horizontal: site %d: %s: "+format, append([]any{s.id, method}, args...)...)
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

type touchKey struct {
	rule *siteRule
	dx   code
}

// groupTouch is one (rule, X) group the running h.batchApply call
// changed: whether it had classes at first touch, their shared flag, and
// how many of the call's events are its insertions and deletions.
type groupTouch struct {
	rule       *siteRule
	dx         code
	xRaw       []string
	preKnown   bool
	preFlag    bool
	nIns, nDel int32
}

// touchEvent is one member change of the running call.
type touchEvent struct {
	touch  int32
	del    bool
	wasInV bool // a deletion's class flag before the call
	id     int64
}

// touchKeep bounds the touch table a site keeps between calls: a call
// that touched more groups (a seeding wave) leaves it to the collector.
const touchKeep = 256

// batchApply runs the whole batch's local phase at the owning site: for
// every owned update, in batch order, it maintains the fragment, checks
// constant rules and applies class-membership changes, recording the
// touched groups. Violation flags are NOT changed here — the driver
// decides every touched group's final flag from the aggregated evidence
// and settles it afterwards, so the flags a touch observes are exactly
// the pre-batch ones. Nothing of a group is copied at first touch: the
// call leaves the classes it empties in place and marks the ones it
// creates, and finishTouches reads each group's evidence off its classes.
func (s *site) batchApply(req batchApplyReq) (batchApplyResp, error) {
	for i, u := range req.Updates {
		if u.Op != OpInsert && u.Op != OpDelete {
			return batchApplyResp{}, s.refuse("h.batchApply", "update %d: op %d", i, u.Op)
		}
		if len(u.Values) != s.schema.Width() {
			return batchApplyResp{}, s.refuse("h.batchApply", "update %d: %d values, want %d", i, len(u.Values), s.schema.Width())
		}
	}
	resp, err := s.localPhase(req)
	groups := s.finishTouches(err == nil)
	if err != nil {
		return batchApplyResp{}, err
	}
	resp.Groups = groups
	return resp, nil
}

// localPhase applies the call's updates, filling the touch table.
func (s *site) localPhase(req batchApplyReq) (batchApplyResp, error) {
	var resp batchApplyResp
	if s.touch == nil {
		s.touch = make(map[touchKey]int32)
	}
	for _, u := range req.Updates {
		t := relation.Tuple{ID: relation.TupleID(u.ID), Values: u.Values}
		if u.Op == OpInsert {
			if err := s.frag.Insert(t); err != nil {
				return resp, err
			}
		} else if held, ok := s.frag.Get(t.ID); !ok || !slices.Equal(held.Values, t.Values) {
			return resp, s.refuse("h.batchApply", "delete of tuple %d, which the fragment does not hold with these values", u.ID)
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
			dx, db := s.tupleKeys(r.Compiled, t)
			ev := touchEvent{touch: s.touchOf(r, dx, t, req.RawKeys), id: u.ID}
			gt := &s.touches[ev.touch]
			if u.Op == OpInsert {
				c, created := r.ensureClass(dx, db)
				c.fresh = c.fresh || created
				c.add(t.ID)
				gt.nIns++
			} else {
				c := r.groups[dx][db]
				if c == nil {
					return resp, fmt.Errorf("horizontal: site %d: delete of unindexed tuple %d (rule %s)", s.id, u.ID, r.ID)
				}
				if !c.remove(t.ID) {
					return resp, fmt.Errorf("horizontal: site %d: tuple %d not in its class (rule %s)", s.id, u.ID, r.ID)
				}
				ev.del, ev.wasInV = true, c.inV
				if len(c.members) == 0 {
					// Gone for the rest of the call: refilled, the class
					// starts unflagged, as a recreated one would.
					c.inV = false
				}
				gt.nDel++
			}
			s.events = append(s.events, ev)
		}
		if u.Op == OpDelete {
			if _, err := s.frag.Delete(t.ID); err != nil {
				return resp, err
			}
		}
	}
	return resp, nil
}

// touchOf returns the touch-table index of (r, dx), recording the group's
// state at first touch.
func (s *site) touchOf(r *siteRule, dx code, t relation.Tuple, raw bool) int32 {
	k := touchKey{r, dx}
	if i, ok := s.touch[k]; ok {
		return i
	}
	g := r.groups[dx]
	gt := groupTouch{rule: r, dx: dx, preKnown: len(g) > 0}
	for _, c := range g {
		gt.preFlag = c.inV
		break
	}
	if raw {
		gt.xRaw = make([]string, len(r.LHSCols))
		for i, col := range r.LHSCols {
			gt.xRaw[i] = t.Values[col]
		}
	}
	i := int32(len(s.touches))
	s.touches = append(s.touches, gt)
	s.touch[k] = i
	return i
}

// finishTouches ends an h.batchApply call, on its error returns too:
// every touched group drops the classes the call emptied (and itself, once
// it has none) and every fresh bit is cleared, so between calls no class
// is empty and none is fresh. When build is set it returns each group's
// evidence. The group's B set before the call is its non-fresh classes and
// the set after its non-empty ones, so the class structure changed iff a
// class older than the call is empty or a fresh class kept members, and a
// new B appeared iff the latter: a class created and emptied within the
// call never existed, a class emptied and refilled is the B it was.
func (s *site) finishTouches(build bool) []touchedGroup {
	var out []touchedGroup
	var bs [][]byte
	var keys []byte
	if build {
		n, nIns, nDel := len(s.touches), 0, 0
		for i := range s.touches {
			nIns += int(s.touches[i].nIns)
			nDel += int(s.touches[i].nDel)
		}
		out = make([]touchedGroup, n)
		bs = make([][]byte, 2*n)
		keys = make([]byte, 3*n*codeLen) // per group: X, then room for two digests
		ids := make([]int64, nIns+nDel)
		wasInV := make([]bool, nDel)
		// Carve each group's runs out of the shared arrays, then drop the
		// events in.
		ins, del := 0, nIns
		for i, gt := range s.touches {
			out[i].Inserted = ids[ins : ins : ins+int(gt.nIns)]
			out[i].Deleted = ids[del : del : del+int(gt.nDel)]
			out[i].DeletedWasInV = wasInV[del-nIns : del-nIns : del-nIns+int(gt.nDel)]
			ins, del = ins+int(gt.nIns), del+int(gt.nDel)
		}
		for _, ev := range s.events {
			tg := &out[ev.touch]
			if ev.del {
				tg.Deleted = append(tg.Deleted, ev.id)
				tg.DeletedWasInV = append(tg.DeletedWasInV, ev.wasInV)
			} else {
				tg.Inserted = append(tg.Inserted, ev.id)
			}
		}
	}
	for i := range s.touches {
		gt := &s.touches[i]
		g := gt.rule.groups[gt.dx]
		structural, newB := false, false
		for db, c := range g {
			switch {
			case len(c.members) == 0:
				structural = structural || !c.fresh
				delete(g, db)
			case c.fresh:
				structural, newB = true, true
			}
			c.fresh = false
		}
		if len(g) == 0 {
			delete(gt.rule.groups, gt.dx)
		}
		if build {
			at := 3 * i * codeLen
			tg := &out[i]
			tg.Rule, tg.X, tg.XRaw = gt.rule.ID, keys[at:at+codeLen:at+codeLen], gt.xRaw
			copy(tg.X, gt.dx[:])
			tg.PreKnown, tg.PreFlag = gt.preKnown, gt.preKnown && gt.preFlag
			tg.Structural, tg.NewB = structural, newB
			tg.PostBs = appendDigests(bs[2*i:2*i:2*i+2], keys[at+codeLen:at+3*codeLen], g)
		}
	}
	clear(s.touches)
	if len(s.touches) > touchKeep {
		s.touch, s.touches, s.events = nil, nil, nil
	} else {
		clear(s.touch)
		s.touches, s.events = s.touches[:0], s.events[:0]
	}
	return out
}

// smallestDigests returns a group's two smallest B digests, ascending, n
// of them: two mean "at least two", which alone decides the group
// violating.
func smallestDigests(g map[code]*hClass) (d [2]code, n int) {
	for db := range g {
		switch {
		case n == 0:
			d[0], n = db, 1
		case bytes.Compare(db[:], d[0][:]) < 0:
			d[0], d[1], n = db, d[0], 2
		case n == 1 || bytes.Compare(db[:], d[1][:]) < 0:
			d[1], n = db, 2
		}
	}
	return d, n
}

// appendDigests appends a group's smallest digests to dst, their bytes
// copied into buf (room for two).
func appendDigests(dst [][]byte, buf []byte, g map[code]*hClass) [][]byte {
	d, n := smallestDigests(g)
	for k := 0; k < n; k++ {
		b := buf[k*codeLen : (k+1)*codeLen : (k+1)*codeLen]
		copy(b, d[k][:])
		dst = append(dst, b)
	}
	return dst
}

// distinctDigests returns a group's smallest digests in fresh memory.
func distinctDigests(g map[code]*hClass) [][]byte {
	if len(g) == 0 {
		return nil
	}
	return appendDigests(make([][]byte, 0, 2), make([]byte, 2*codeLen), g)
}

// forwardGroup receives an owner's group evidence at the relay site;
// state-free: the driver aggregates, exactly as with constant-rule votes.
func (s *site) forwardGroup(forwardGroupReq) (empty, error) { return empty{}, nil }

// itemCodes decodes the n item keys of a probe or settle into s.codes,
// refusing the call — before anything changes — on a digest that is not
// 16 bytes.
func (s *site) itemCodes(method string, n int, key func(int) keyRef) error {
	s.codes = s.codes[:0]
	for i := 0; i < n; i++ {
		k := key(i)
		dx, ok := k.code()
		if !ok {
			return s.refuse(method, "item %d: group digest of %d bytes", i, len(k.Digest))
		}
		s.codes = append(s.codes, dx)
	}
	return nil
}

// probeGroup answers a coalesced probe: for each group item it reports
// the local evidence (classes present, shared flag, ≤ 2 distinct B
// digests) and — when the item is Decided, or the item's digests plus its
// own prove ≥ 2 distinct B values — promotes its classes inline,
// returning the flipped members. §6's probe semantics, for a whole wave of
// groups in one message.
func (s *site) probeGroup(req probeGroupReq) (probeGroupResp, error) {
	if err := s.itemCodes("h.probeGroup", len(req.Items), func(i int) keyRef { return req.Items[i].X }); err != nil {
		return probeGroupResp{}, err
	}
	resp := probeGroupResp{Items: make([]probeGroupItemResp, 0, len(req.Items))}
	for i, item := range req.Items {
		g := s.group(item.Rule, s.codes[i])
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
					ir.Added = appendIDs(ir.Added, c.members)
				}
			}
			ir.Promoted = true
			slices.Sort(ir.Added)
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
	if err := s.itemCodes("h.settleGroup", len(req.Items), func(i int) keyRef { return req.Items[i].X }); err != nil {
		return settleGroupResp{}, err
	}
	resp := settleGroupResp{Items: make([]settleGroupItemResp, 0, len(req.Items))}
	for i, item := range req.Items {
		var ir settleGroupItemResp
		for _, c := range s.group(item.Rule, s.codes[i]) {
			if c.inV == item.Flag {
				continue
			}
			c.inV = item.Flag
			if item.Flag {
				ir.Added = appendIDs(ir.Added, c.members)
			} else {
				ir.Removed = appendIDs(ir.Removed, c.members)
			}
		}
		slices.Sort(ir.Added)
		slices.Sort(ir.Removed)
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
	network.RegisterFunc(c, s.id, "h.batchApply", s.batchApply)
	network.RegisterFunc(c, s.id, "h.forwardGroup", s.forwardGroup)
	network.RegisterFunc(c, s.id, "h.probeGroup", s.probeGroup)
	network.RegisterFunc(c, s.id, "h.settleGroup", s.settleGroup)
	network.RegisterFunc(c, s.id, "h.shipMatching", s.shipMatching)
	network.RegisterFunc(c, s.id, "h.localDetect", s.localDetect)
	network.RegisterFunc(c, s.id, "h.seedRules", s.seedRules)
	network.RegisterFunc(c, s.id, "h.dropRules", s.dropRules)
}

// appendIDs appends class members to a reply's id list.
func appendIDs(dst []int64, ids []relation.TupleID) []int64 {
	for _, id := range ids {
		dst = append(dst, int64(id))
	}
	return dst
}
