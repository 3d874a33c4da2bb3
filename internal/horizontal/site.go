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
	"repro/internal/xerr"
)

// sClass is one equivalence class [t]_{X∪{B}} restricted to a site's
// fragment, with its violation flag. All members share (X, B) values, so
// they share violation status — the flag is per class, which is what makes
// every protocol step O(1).
type sClass struct {
	db      code
	members []relation.TupleID // ascending
	inV     bool
	// fresh marks a class the running h.batchApply call created; the call
	// clears it before it returns, so between calls no class has it set.
	fresh bool
}

// add inserts id into the class, keeping members ascending.
func (c *sClass) add(id relation.TupleID) {
	if i, found := slices.BinarySearch(c.members, id); !found {
		c.members = slices.Insert(c.members, i, id)
	}
}

// remove deletes id from the class, reporting whether it was a member.
func (c *sClass) remove(id relation.TupleID) bool {
	i, found := slices.BinarySearch(c.members, id)
	if found {
		c.members = slices.Delete(c.members, i, i+1)
	}
	return found
}

// sGroup is one (rule, X) group at a site: its classes inline, sorted by
// B code. Between calls every class has members and all share one flag,
// so classes[0] carries the group's flag and the first two classes are its
// smallest B digests. A *sClass into classes is only good until the next
// insert into the group.
type sGroup struct {
	classes []sClass
	// touch is the group's slot in the running h.batchApply call's touch
	// table plus one; zero between calls.
	touch int32
}

// class returns the class of db, nil when absent.
func (g *sGroup) class(db code) *sClass {
	if i, found := g.find(db); found {
		return &g.classes[i]
	}
	return nil
}

func (g *sGroup) find(db code) (int, bool) {
	return slices.BinarySearchFunc(g.classes, db, func(c sClass, db code) int { return bytes.Compare(c.db[:], db[:]) })
}

// ensure returns the class of db, inserting it when absent.
func (g *sGroup) ensure(db code) (c *sClass, created bool) {
	i, found := g.find(db)
	if !found {
		g.classes = slices.Insert(g.classes, i, sClass{db: db})
	}
	return &g.classes[i], !found
}

// siteRule is one installed rule with its class index: X code → group
// (nil under a constant rule).
type siteRule struct {
	*cfd.Compiled
	groups map[code]*sGroup
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
	// groups holds the groups an item list of a probe or settle names.
	groups []*sGroup

	// The B-code memo of the running h.batchApply call: bMemo[col] is the
	// code of the current tuple's col iff bStamp[col] == stamp, and stamp
	// moves on for every update, so no code outlives its tuple.
	bMemo  []code
	bStamp []uint64
	stamp  uint64

	// The touch table of the running h.batchApply call, kept for the next
	// one (see touchKeep): each touched group holds its slot, events are
	// the call's member changes in batch order.
	touches []groupTouch
	events  []touchEvent

	// reply holds the arrays the last small h.batchApply reply was carved
	// from, which the next small call carves again (see replyKeep).
	reply replyArrays
}

// replyArrays back one h.batchApply reply: its touched groups, their
// digest lists and bytes, their member changes and the constant-rule
// marks.
type replyArrays struct {
	groups []touchedGroup
	bs     [][]byte
	keys   []byte
	ids    []int64
	wasInV []bool
	consts []constMark
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
		r.groups = make(map[code]*sGroup)
	}
	s.rules[c.ID] = r
	s.ruleOrder = append(s.ruleOrder, r)
}

// ensureGroup returns the group of dx, creating it when absent.
func (r *siteRule) ensureGroup(dx code) *sGroup {
	g := r.groups[dx]
	if g == nil {
		g = &sGroup{}
		r.groups[dx] = g
	}
	return g
}

// refuse is the error a handler answers a malformed call with.
func (s *site) refuse(method, format string, args ...any) error {
	return fmt.Errorf("horizontal: site %d: %s: "+format, append([]any{s.id, method}, args...)...)
}

// tupleKeys computes the MD5 codes of t[X] and t[B] under a compiled
// rule through the site's scratch buffer.
func (s *site) tupleKeys(r *cfd.Compiled, t relation.Tuple) (dx, db code) {
	return s.xCode(r, t), s.valueCode(t.Values[r.RHSCol])
}

func (s *site) xCode(r *cfd.Compiled, t relation.Tuple) code {
	s.keyBuf = t.AppendKey(s.keyBuf[:0], r.LHSCols)
	return md5.Sum(s.keyBuf)
}

func (s *site) valueCode(v string) code {
	s.bScratch[0] = v
	s.keyBuf = relation.AppendKeyVals(s.keyBuf[:0], s.bScratch[:])
	return md5.Sum(s.keyBuf)
}

// memoBCode is valueCode of t's col through the B memo: rules sharing a
// right-hand side share one digest per update. Only the local phase calls
// it, after moving the stamp on for t.
func (s *site) memoBCode(t relation.Tuple, col int) code {
	if s.bStamp[col] != s.stamp {
		s.bMemo[col], s.bStamp[col] = s.valueCode(t.Values[col]), s.stamp
	}
	return s.bMemo[col]
}

// groupTouch is one (rule, X) group the running h.batchApply call
// changed: whether it had classes at first touch, their shared flag, and
// how many of the call's events are its insertions and deletions.
type groupTouch struct {
	rule       *siteRule
	dx         code
	g          *sGroup
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

// replyKeep bounds the reply a site carves from its kept arrays: a call
// of at most replyKeep touched groups, member events and constant-rule
// marks reuses them, so a stream of small calls allocates no reply; a
// larger call (seeding, a wide batch) gets arrays of its own, so their
// high-water size is not carried between calls.
const replyKeep = 64

// reuse returns (*buf)[:n], zeroed, first clearing what the last reply
// left in *buf; a *buf too short is replaced by a fresh array.
func reuse[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
		return *buf
	}
	clear(*buf)
	*buf = (*buf)[:n]
	return *buf
}

// batchApply runs the whole batch's local phase at the owning site: for
// every owned update, in batch order, it maintains the fragment, checks
// constant rules and applies class-membership changes, recording the
// touched groups. Violation flags are NOT changed here — the driver
// decides every touched group's final flag from the aggregated evidence
// and settles it afterwards, so the flags a touch observes are exactly
// the pre-batch ones. Nothing of a group is copied at first touch: the
// call leaves the classes it empties in place and marks the ones it
// creates, and finishTouches reads each group's evidence off its classes.
// The reply shares the site's kept arrays (replyKeep): it is good until
// the site's next h.batchApply.
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
	if len(resp.Consts) <= replyKeep {
		s.reply.consts = resp.Consts[:0]
	}
	if err != nil {
		return batchApplyResp{}, err
	}
	resp.Groups = groups
	return resp, nil
}

// localPhase applies the call's updates, filling the touch table, and
// appends the constant-rule marks to the kept array.
func (s *site) localPhase(req batchApplyReq) (batchApplyResp, error) {
	resp := batchApplyResp{Consts: s.reply.consts[:0]}
	if w := s.schema.Width(); len(s.bMemo) != w {
		s.bMemo, s.bStamp = make([]code, w), make([]uint64, w)
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
		s.stamp++
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
			dx, db := s.xCode(r.Compiled, t), s.memoBCode(t, r.RHSCol)
			g := r.groups[dx]
			if g == nil {
				if u.Op == OpDelete {
					return resp, fmt.Errorf("horizontal: site %d: delete of unindexed tuple %d (rule %s)", s.id, u.ID, r.ID)
				}
				g = r.ensureGroup(dx)
			}
			ev := touchEvent{touch: s.touchOf(r, dx, g, t, req.RawKeys), id: u.ID}
			gt := &s.touches[ev.touch]
			if u.Op == OpInsert {
				c, created := g.ensure(db)
				c.fresh = c.fresh || created
				c.add(t.ID)
				gt.nIns++
			} else {
				c := g.class(db)
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

// touchOf returns the touch-table index of r's group g (of code dx),
// recording the group's state at first touch.
func (s *site) touchOf(r *siteRule, dx code, g *sGroup, t relation.Tuple, raw bool) int32 {
	if g.touch > 0 {
		return g.touch - 1
	}
	gt := groupTouch{rule: r, dx: dx, g: g, preKnown: len(g.classes) > 0}
	if gt.preKnown {
		gt.preFlag = g.classes[0].inV
	}
	if raw {
		gt.xRaw = make([]string, len(r.LHSCols))
		for i, col := range r.LHSCols {
			gt.xRaw[i] = t.Values[col]
		}
	}
	s.touches = append(s.touches, gt)
	g.touch = int32(len(s.touches))
	return g.touch - 1
}

// finishTouches ends an h.batchApply call, on its error returns too:
// every touched group drops the classes the call emptied (and itself, once
// it has none), gives back its touch slot, and every fresh bit is cleared,
// so between calls no class is empty and none is fresh. When build is set
// it returns each group's evidence. The group's B set before the call is
// its non-fresh classes and the set after its non-empty ones, so the class
// structure changed iff a class older than the call is empty or a fresh
// class kept members, and a new B appeared iff the latter: a class created
// and emptied within the call never existed, a class emptied and refilled
// is the B it was. AnyIn and AnyOut read the surviving classes' flags.
// A reply of at most replyKeep groups and events is carved from s.reply.
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
		r := &s.reply
		if n > replyKeep || len(s.events) > replyKeep {
			r = &replyArrays{} // a large reply's arrays are its own
		}
		out = reuse(&r.groups, n)
		bs = reuse(&r.bs, 2*n)
		keys = reuse(&r.keys, 3*n*codeLen) // per group: X, then room for two digests
		ids := reuse(&r.ids, nIns+nDel)
		wasInV := reuse(&r.wasInV, nDel)
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
		g := gt.g
		structural, newB, anyIn, anyOut := false, false, false, false
		kept := 0
		for k := range g.classes {
			c := &g.classes[k]
			switch {
			case len(c.members) == 0:
				structural = structural || !c.fresh
				continue
			case c.fresh:
				structural, newB = true, true
			}
			c.fresh = false
			anyIn, anyOut = anyIn || c.inV, anyOut || !c.inV
			g.classes[kept] = *c
			kept++
		}
		clear(g.classes[kept:])
		g.classes, g.touch = g.classes[:kept], 0
		if kept == 0 {
			delete(gt.rule.groups, gt.dx)
		}
		if build {
			at := 3 * i * codeLen
			tg := &out[i]
			tg.Rule, tg.X, tg.XRaw = gt.rule.ID, keys[at:at+codeLen:at+codeLen], gt.xRaw
			copy(tg.X, gt.dx[:])
			tg.PreKnown, tg.PreFlag = gt.preKnown, gt.preFlag
			tg.Structural, tg.NewB = structural, newB
			tg.AnyIn, tg.AnyOut = anyIn, anyOut
			tg.PostBs = appendDigests(bs[2*i:2*i:2*i+2], keys[at+codeLen:at+3*codeLen], g)
		}
	}
	clear(s.touches)
	if len(s.touches) > touchKeep {
		s.touches, s.events = nil, nil
	} else {
		s.touches, s.events = s.touches[:0], s.events[:0]
	}
	return out
}

// appendDigests appends a group's smallest B digests — its first two
// classes', ascending — to dst, their bytes copied into buf (room for
// two). Two mean "at least two", which alone decides the group violating.
func appendDigests(dst [][]byte, buf []byte, g *sGroup) [][]byte {
	for k := 0; k < len(g.classes) && k < 2; k++ {
		b := buf[k*codeLen : (k+1)*codeLen : (k+1)*codeLen]
		copy(b, g.classes[k].db[:])
		dst = append(dst, b)
	}
	return dst
}

// distinctDigests returns a group's smallest digests in fresh memory.
func distinctDigests(g *sGroup) [][]byte {
	if g == nil || len(g.classes) == 0 {
		return nil
	}
	return appendDigests(make([][]byte, 0, 2), make([]byte, 2*codeLen), g)
}

// forwardGroup receives an owner's group evidence at the relay site;
// state-free: the driver aggregates, exactly as with constant-rule votes.
func (s *site) forwardGroup(forwardGroupReq) (empty, error) { return empty{}, nil }

// itemGroups resolves the n (rule, X) items of a probe or settle into
// s.groups (nil for a group the site has no classes of), refusing the
// call — before anything changes — on a rule the site does not hold as a
// variable rule, or a digest that is not 16 bytes.
func (s *site) itemGroups(method string, n int, item func(int) (string, keyRef)) error {
	clear(s.groups)
	s.groups = s.groups[:0]
	for i := 0; i < n; i++ {
		rule, k := item(i)
		r := s.rules[rule]
		if r == nil || r.ConstRHS {
			return s.refuse(method, "item %d: rule %q: %w", i, rule, xerr.ErrUnknownRule)
		}
		dx, ok := k.code()
		if !ok {
			return s.refuse(method, "item %d: group digest of %d bytes", i, len(k.Digest))
		}
		s.groups = append(s.groups, r.groups[dx])
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
	if err := s.itemGroups("h.probeGroup", len(req.Items), func(i int) (string, keyRef) { return req.Items[i].Rule, req.Items[i].X }); err != nil {
		return probeGroupResp{}, err
	}
	resp := probeGroupResp{Items: make([]probeGroupItemResp, 0, len(req.Items))}
	for i, item := range req.Items {
		g := s.groups[i]
		var ir probeGroupItemResp
		if g != nil {
			ir.HasClasses, ir.Flag = true, g.classes[0].inV
			ir.Bs = distinctDigests(g)
		}
		if item.Decided || combinedDistinct(item.Bs, ir.Bs) >= 2 {
			if g != nil {
				for k := range g.classes {
					if c := &g.classes[k]; !c.inV {
						c.inV = true
						ir.Added = appendIDs(ir.Added, c.members)
					}
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
	if err := s.itemGroups("h.settleGroup", len(req.Items), func(i int) (string, keyRef) { return req.Items[i].Rule, req.Items[i].X }); err != nil {
		return settleGroupResp{}, err
	}
	resp := settleGroupResp{Items: make([]settleGroupItemResp, 0, len(req.Items))}
	for i, item := range req.Items {
		var ir settleGroupItemResp
		if g := s.groups[i]; g != nil {
			for k := range g.classes {
				c := &g.classes[k]
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
	network.RegisterFunc(c, s.id, mBatchApply, s.batchApply)
	network.RegisterFunc(c, s.id, mForwardGroup, s.forwardGroup)
	network.RegisterFunc(c, s.id, mProbeGroup, s.probeGroup)
	network.RegisterFunc(c, s.id, mSettleGroup, s.settleGroup)
	network.RegisterFunc(c, s.id, mShipMatching, s.shipMatching)
	network.RegisterFunc(c, s.id, mLocalDetect, s.localDetect)
	network.RegisterFunc(c, s.id, mSeedRules, s.seedRules)
	network.RegisterFunc(c, s.id, mDropRules, s.dropRules)
}

// appendIDs appends class members to a reply's id list.
func appendIDs(dst []int64, ids []relation.TupleID) []int64 {
	for _, id := range ids {
		dst = append(dst, int64(id))
	}
	return dst
}
