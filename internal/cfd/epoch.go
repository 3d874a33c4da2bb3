package cfd

import (
	"math/bits"
	"sort"

	"repro/internal/relation"
)

// This file is the copy-on-write epoch layer behind every read: the live
// Violations keeps its allocation-free map-and-bitset representation for
// the write path, and mirrors the same state into a persistent array-mapped
// trie that is published as an immutable EpochView. The view also carries
// the per-rule posting tries — the only per-rule index there is, so every
// per-rule read goes through a view. Publishing touches only the trie
// paths the marks since the last publish reach — O(|∆V| · depth),
// independent of |V| — so a writer can emit one epoch per applied batch
// while any number of readers keep answering from older epochs without
// locks, tearing, or copies.
//
// Ownership follows Clojure's transients: every node carries the epoch
// whose build created it. The build of epoch N mutates a node tagged N in
// place and copies any other node once, tagging the copy N, so a publish
// copies each node on the union of its paths at most once, however many
// flips land below it. This is safe because the nodes tagged N are
// reachable by nobody but the writer until the build ends: no reader can
// reach epoch N before Publish returns it and its caller hands it out (the
// session swaps it into its read state under its state lock), and
// Violations.Clone does not carry the epoch track, so an epoch number
// names one writer's build only — a clone builds its epochs from fresh
// nodes.

const (
	amtBits = 6
	amtFan  = 1 << amtBits // 64-way fanout
	amtMask = amtFan - 1
)

func onesCount(w uint64) int { return bits.OnesCount64(w) }

// amtLeaf is one (tuple, rule-bitset) entry, held by value in its node.
// Its spilled words are never written in place: a leaf struct copied into
// a newer node may share them with an older epoch, so every change to
// them copies them.
type amtLeaf struct {
	key relation.TupleID
	w   uint64   // inline bitset word while every rule index fits in 64 bits
	ws  []uint64 // spilled multi-word bitset; w is unused once non-nil
}

func (l *amtLeaf) has(idx RuleIdx) bool {
	if l.ws == nil {
		return int(idx) < smallWidth && l.w&(1<<uint(idx)) != 0
	}
	word, bit := int(idx)/64, uint(idx)%64
	return word < len(l.ws) && l.ws[word]&(1<<bit) != 0
}

func (l *amtLeaf) marks() int {
	if l.ws == nil {
		return onesCount(l.w)
	}
	n := 0
	for _, w := range l.ws {
		n += onesCount(w)
	}
	return n
}

// withBit returns a copy of the leaf with bit idx set.
func (l amtLeaf) withBit(idx RuleIdx) amtLeaf {
	if l.ws == nil && int(idx) < smallWidth {
		l.w |= 1 << uint(idx)
		return l
	}
	word, bit := int(idx)/64, uint(idx)%64
	ws := make([]uint64, max(word+1, len(l.ws)))
	copy(ws, l.ws)
	if l.ws == nil {
		ws[0] = l.w
	}
	ws[word] |= 1 << bit
	l.w, l.ws = 0, ws
	return l
}

// withoutBit returns a copy with bit idx cleared; empty reports the
// bitset is now all-zero (the leaf should be dropped).
func (l amtLeaf) withoutBit(idx RuleIdx) (out amtLeaf, empty bool) {
	if l.ws == nil {
		l.w &^= 1 << uint(idx)
		return l, l.w == 0
	}
	word, bit := int(idx)/64, uint(idx)%64
	ws := append([]uint64(nil), l.ws...)
	if word < len(ws) {
		ws[word] &^= 1 << bit
	}
	l.ws = ws
	for _, w := range ws {
		if w != 0 {
			return l, false
		}
	}
	return l, true
}

// amtNode is one trie node in CHAMP layout: leaves and sub-nodes live in
// separate packed arrays addressed by two slot bitmaps. epoch names the
// build that created the node: that build alone may change it in place;
// every later build copies it before a change (own), so a node is
// immutable once its epoch is published.
type amtNode struct {
	leafBits uint64
	nodeBits uint64
	leaves   []amtLeaf
	nodes    []*amtNode
	epoch    uint64
}

func packedIdx(bits uint64, slot uint) int {
	return onesCount(bits & (1<<slot - 1))
}

func amtSlot(key relation.TupleID, shift uint) uint {
	return uint(uint64(key)>>shift) & amtMask
}

// amtGet returns key's leaf, nil when absent.
func amtGet(n *amtNode, key relation.TupleID) *amtLeaf {
	shift := uint(0)
	for n != nil {
		slot := amtSlot(key, shift)
		if n.leafBits&(1<<slot) != 0 {
			l := &n.leaves[packedIdx(n.leafBits, slot)]
			if l.key == key {
				return l
			}
			return nil
		}
		if n.nodeBits&(1<<slot) == 0 {
			return nil
		}
		n = n.nodes[packedIdx(n.nodeBits, slot)]
		shift += amtBits
	}
	return nil
}

// own returns n when the build of epoch created it, and otherwise a copy
// tagged with epoch, with room for one more leaf and child so the insert
// that usually follows a copy does not grow the arrays again.
func own(n *amtNode, epoch uint64) *amtNode {
	if n.epoch == epoch {
		return n
	}
	c := &amtNode{leafBits: n.leafBits, nodeBits: n.nodeBits, epoch: epoch}
	if len(n.leaves) > 0 {
		c.leaves = append(make([]amtLeaf, 0, len(n.leaves)+1), n.leaves...)
	}
	if len(n.nodes) > 0 {
		c.nodes = append(make([]*amtNode, 0, len(n.nodes)+1), n.nodes...)
	}
	return c
}

// The four array edits below work in place: callers apply them only to
// a node they own.

func insertLeaf(leaves []amtLeaf, i int, l amtLeaf) []amtLeaf {
	leaves = append(leaves, amtLeaf{})
	copy(leaves[i+1:], leaves[i:])
	leaves[i] = l
	return leaves
}

func removeLeaf(leaves []amtLeaf, i int) []amtLeaf {
	last := len(leaves) - 1
	copy(leaves[i:], leaves[i+1:])
	leaves[last] = amtLeaf{}
	return leaves[:last]
}

func insertNode(nodes []*amtNode, i int, c *amtNode) []*amtNode {
	nodes = append(nodes, nil)
	copy(nodes[i+1:], nodes[i:])
	nodes[i] = c
	return nodes
}

func removeNode(nodes []*amtNode, i int) []*amtNode {
	last := len(nodes) - 1
	copy(nodes[i:], nodes[i+1:])
	nodes[last] = nil
	return nodes[:last]
}

// amtMerge builds the minimal sub-trie holding two distinct-key leaves
// that collide on every slot up to shift, its nodes tagged with epoch.
func amtMerge(a, b amtLeaf, shift uint, epoch uint64) *amtNode {
	sa, sb := amtSlot(a.key, shift), amtSlot(b.key, shift)
	if sa == sb {
		return &amtNode{
			nodeBits: 1 << sa,
			nodes:    []*amtNode{amtMerge(a, b, shift+amtBits, epoch)},
			epoch:    epoch,
		}
	}
	if sa > sb {
		a, b = b, a
		sa, sb = sb, sa
	}
	return &amtNode{leafBits: 1<<sa | 1<<sb, leaves: []amtLeaf{a, b}, epoch: epoch}
}

// amtSet returns the root with bit idx set on key's bitset, as built by
// epoch: nodes of that build on the path to key change in place, older
// ones are copied once (own). newKey reports key was absent entirely;
// changed reports the bit was newly set. An unchanged trie comes back
// as n, uncopied.
func amtSet(n *amtNode, key relation.TupleID, idx RuleIdx, shift uint, epoch uint64) (out *amtNode, newKey, changed bool) {
	if n == nil {
		return &amtNode{
			leafBits: 1 << amtSlot(key, shift),
			leaves:   []amtLeaf{amtLeaf{key: key}.withBit(idx)},
			epoch:    epoch,
		}, true, true
	}
	slot := amtSlot(key, shift)
	switch {
	case n.leafBits&(1<<slot) != 0:
		i := packedIdx(n.leafBits, slot)
		l := n.leaves[i]
		if l.key == key {
			if l.has(idx) {
				return n, false, false
			}
			c := own(n, epoch)
			c.leaves[i] = l.withBit(idx)
			return c, false, true
		}
		// Slot collision with a different key: push both down a level.
		child := amtMerge(l, amtLeaf{key: key}.withBit(idx), shift+amtBits, epoch)
		c := own(n, epoch)
		c.leafBits &^= 1 << slot
		c.leaves = removeLeaf(c.leaves, i)
		c.nodeBits |= 1 << slot
		c.nodes = insertNode(c.nodes, packedIdx(c.nodeBits, slot), child)
		return c, true, true
	case n.nodeBits&(1<<slot) != 0:
		i := packedIdx(n.nodeBits, slot)
		child, nk, ch := amtSet(n.nodes[i], key, idx, shift+amtBits, epoch)
		if !ch {
			return n, nk, ch
		}
		c := own(n, epoch)
		c.nodes[i] = child
		return c, nk, ch
	default:
		c := own(n, epoch)
		c.leafBits |= 1 << slot
		c.leaves = insertLeaf(c.leaves, packedIdx(c.leafBits, slot), amtLeaf{key: key}.withBit(idx))
		return c, true, true
	}
}

// amtClear returns the root with bit idx cleared from key's bitset, as
// built by epoch (see amtSet). goneKey reports key's last bit left (the
// leaf was removed); changed reports the bit was set before. A root
// emptied entirely becomes nil.
func amtClear(n *amtNode, key relation.TupleID, idx RuleIdx, shift uint, epoch uint64) (out *amtNode, goneKey, changed bool) {
	if n == nil {
		return nil, false, false
	}
	slot := amtSlot(key, shift)
	switch {
	case n.leafBits&(1<<slot) != 0:
		i := packedIdx(n.leafBits, slot)
		l := n.leaves[i]
		if l.key != key || !l.has(idx) {
			return n, false, false
		}
		nl, empty := l.withoutBit(idx)
		if !empty {
			c := own(n, epoch)
			c.leaves[i] = nl
			return c, false, true
		}
		if len(n.leaves) == 1 && n.nodeBits == 0 {
			return nil, true, true
		}
		c := own(n, epoch)
		c.leafBits &^= 1 << slot
		c.leaves = removeLeaf(c.leaves, i)
		return c, true, true
	case n.nodeBits&(1<<slot) != 0:
		i := packedIdx(n.nodeBits, slot)
		child, gone, ch := amtClear(n.nodes[i], key, idx, shift+amtBits, epoch)
		if !ch {
			return n, gone, ch
		}
		if child == nil && len(n.nodes) == 1 && n.leafBits == 0 {
			return nil, gone, ch
		}
		c := own(n, epoch)
		if child != nil {
			c.nodes[i] = child
			return c, gone, ch
		}
		c.nodeBits &^= 1 << slot
		c.nodes = removeNode(c.nodes, i)
		return c, gone, ch
	default:
		return n, false, false
	}
}

// amtEach visits every leaf; f returning false stops the walk.
func amtEach(n *amtNode, f func(*amtLeaf) bool) bool {
	if n == nil {
		return true
	}
	for i := range n.leaves {
		if !f(&n.leaves[i]) {
			return false
		}
	}
	for _, c := range n.nodes {
		if !amtEach(c, f) {
			return false
		}
	}
	return true
}

// EpochView is one immutable epoch of the violation state: the mark
// bitsets, the per-rule posting indexes and the aggregate counters, all
// behind persistent tries. A view never changes after Publish returns
// it, is safe for any number of concurrent readers, and is where every
// per-rule query is answered in O(answer).
type EpochView struct {
	epoch uint64

	names      []string
	byName     map[string]RuleIdx
	nameSorted []RuleIdx

	marks  *amtNode  // tuple → rule bitset
	post   []posting // per rule index
	tuples int       // |V|
	markN  int       // total (tuple, rule) marks
}

// posting is one rule's posting set (bit 0 = membership) and its size.
type posting struct {
	root *amtNode
	n    int
}

// Epoch returns the view's monotonic epoch number (1 is the first
// published epoch of a violation set).
func (e *EpochView) Epoch() uint64 { return e.epoch }

// Len returns |V| at this epoch.
func (e *EpochView) Len() int { return e.tuples }

// Marks returns the total number of (tuple, rule) marks at this epoch.
func (e *EpochView) Marks() int { return e.markN }

// Has reports whether the tuple violates any rule at this epoch.
func (e *EpochView) Has(id relation.TupleID) bool { return amtGet(e.marks, id) != nil }

// HasRuleIdx reports whether the tuple violates the rule with the given
// interned index at this epoch.
func (e *EpochView) HasRuleIdx(id relation.TupleID, idx RuleIdx) bool {
	l := amtGet(e.marks, id)
	return l != nil && l.has(idx)
}

// HasRule reports whether the tuple violates the given rule.
func (e *EpochView) HasRule(id relation.TupleID, rule string) bool {
	idx, ok := e.byName[rule]
	return ok && e.HasRuleIdx(id, idx)
}

// LookupRule returns the interned index of rule, if any.
func (e *EpochView) LookupRule(rule string) (RuleIdx, bool) {
	idx, ok := e.byName[rule]
	return idx, ok
}

// Rules returns the sorted rule ids violated by the tuple.
func (e *EpochView) Rules(id relation.TupleID) []string {
	l := amtGet(e.marks, id)
	if l == nil {
		return nil
	}
	out := make([]string, 0, l.marks())
	for _, idx := range e.nameSorted {
		if l.has(idx) {
			out = append(out, e.names[idx])
		}
	}
	return out
}

// EachTuple calls f for every violating tuple, in trie order; f
// returning false stops the walk.
func (e *EpochView) EachTuple(f func(relation.TupleID) bool) {
	amtEach(e.marks, func(l *amtLeaf) bool { return f(l.key) })
}

// Tuples returns the violating tuple ids in ascending order.
func (e *EpochView) Tuples() []relation.TupleID {
	out := make([]relation.TupleID, 0, e.tuples)
	e.EachTuple(func(id relation.TupleID) bool { out = append(out, id); return true })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CountIdx returns the number of tuples violating the rule with the
// given interned index, in O(1).
func (e *EpochView) CountIdx(idx RuleIdx) int {
	if int(idx) < 0 || int(idx) >= len(e.post) {
		return 0
	}
	return e.post[idx].n
}

// CountRule returns the number of tuples violating rule, in O(1).
func (e *EpochView) CountRule(rule string) int {
	idx, ok := e.byName[rule]
	if !ok {
		return 0
	}
	return e.CountIdx(idx)
}

// EachTupleOfRuleIdx calls f for every tuple violating the rule with the
// given interned index; f returning false stops. Cost is O(visited).
func (e *EpochView) EachTupleOfRuleIdx(idx RuleIdx, f func(relation.TupleID) bool) {
	if int(idx) < 0 || int(idx) >= len(e.post) {
		return
	}
	amtEach(e.post[idx].root, func(l *amtLeaf) bool { return f(l.key) })
}

// EachTupleOfRule is EachTupleOfRuleIdx by rule id.
func (e *EpochView) EachTupleOfRule(rule string, f func(relation.TupleID) bool) {
	if idx, ok := e.byName[rule]; ok {
		e.EachTupleOfRuleIdx(idx, f)
	}
}

// TuplesOfRule returns the tuples violating rule in ascending order.
func (e *EpochView) TuplesOfRule(rule string) []relation.TupleID {
	idx, ok := e.byName[rule]
	if !ok {
		return nil
	}
	out := make([]relation.TupleID, 0, e.CountIdx(idx))
	e.EachTupleOfRuleIdx(idx, func(id relation.TupleID) bool { out = append(out, id); return true })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Histogram returns the per-rule violation counts in lexicographic rule
// order.
func (e *EpochView) Histogram() []RuleCount {
	out := make([]RuleCount, len(e.nameSorted))
	for i, idx := range e.nameSorted {
		out[i] = RuleCount{Rule: e.names[idx], Count: e.CountIdx(idx)}
	}
	return out
}

// Measure computes the aggregate inconsistency measures at this epoch.
func (e *EpochView) Measure() Measures {
	m := Measures{ViolatingTuples: e.tuples, Marks: e.markN}
	if m.ViolatingTuples > 0 {
		m.Drastic = 1
	}
	for _, p := range e.post {
		if p.n > 0 {
			m.RulesViolated++
		}
	}
	return m
}

// markOp is one recorded mark flip awaiting the next Publish.
type markOp struct {
	id  relation.TupleID
	idx RuleIdx
	add bool
}

// epochTrack is the live set's epoch machinery: the last published view
// plus the mark flips recorded since. All of it belongs to the (single)
// writer; readers get views only through whoever called Publish.
type epochTrack struct {
	cur        *EpochView
	pending    []markOp
	rulesDirty bool
	// overflow: the pending log outgrew the point where replaying it
	// beats rebuilding; the next Publish rebuilds from the live maps.
	overflow bool
}

// noteMark records a real bit flip for the next Publish. A replay copies
// each touched node at most once, so however long the log grows it never
// allocates more trie nodes than a rebuild; the bound is for the log
// itself, which would otherwise grow without limit under snapshot-free
// churn, and for the replay's walk, one root-to-leaf descent per flip.
// Past 4·|V|+1024 flips the log is dropped and the next Publish rebuilds
// from the live maps in one O(|V|) walk instead.
func (v *Violations) noteMark(id relation.TupleID, idx RuleIdx, add bool) {
	t := v.track
	if t.overflow {
		return
	}
	if len(t.pending) >= 4*v.ms.lenTuples()+1024 {
		t.overflow = true
		t.pending = t.pending[:0]
		return
	}
	t.pending = append(t.pending, markOp{id: id, idx: idx, add: add})
}

// Publish folds every mark flip since the last publish into a new
// immutable EpochView and makes it current, copying each trie node on the
// flips' paths once — O(|∆V| · trie depth), independent of |V|. The
// build owns the nodes it copies or creates (they carry its epoch) and
// changes them in place for every later flip of the same publish; the
// previous epoch's nodes are never written. The first call builds epoch 1
// from the live maps and arms the tracking hooks; with nothing pending it
// returns the current view unchanged.
// Publish is a writer-side operation: callers must serialize it with the
// mutators and hand the returned view to readers themselves (the session
// swaps it into its read state); the view needs no lock. Nothing may
// read the view before Publish returns it: until then its nodes are
// still being changed in place.
func (v *Violations) Publish() *EpochView {
	t := v.track
	switch {
	case t == nil:
		v.track = &epochTrack{cur: v.buildEpoch(1)}
	case t.overflow:
		t.cur = v.buildEpoch(t.cur.epoch + 1)
		t.overflow, t.rulesDirty, t.pending = false, false, t.pending[:0]
	case len(t.pending) > 0 || t.rulesDirty:
		t.cur = v.applyPending(t.cur)
		t.pending, t.rulesDirty = t.pending[:0], false
	}
	return v.track.cur
}

// buildEpoch constructs a full view from the live mark bitsets: O(|V|),
// used for the first epoch and after a pending-log overflow. Every node
// is new and owned by epoch, so each insert changes the trie in place.
// The postings and their counts come out of the same walk.
func (v *Violations) buildEpoch(epoch uint64) *EpochView {
	ev := &EpochView{
		epoch:      epoch,
		names:      v.rs.names,
		byName:     cloneByName(v.rs.byName),
		nameSorted: v.rs.sortedIdx(),
		post:       make([]posting, len(v.rs.names)),
	}
	v.ms.each(func(id relation.TupleID, idx RuleIdx) {
		var newKey bool
		ev.marks, newKey, _ = amtSet(ev.marks, id, idx, 0, epoch)
		if newKey {
			ev.tuples++
		}
		p := &ev.post[idx]
		p.root, _, _ = amtSet(p.root, id, 0, 0, epoch)
		p.n++
		ev.markN++
	})
	return ev
}

// applyPending derives the next epoch from cur by replaying the recorded
// flips. The pending log holds exactly the bits that actually flipped on
// the live set since cur was published, in order, so the replay lands
// the tries on the live state precisely. The replay builds next.epoch:
// cur's nodes are copied once, and every later flip below a copy
// changes the copy in place.
func (v *Violations) applyPending(cur *EpochView) *EpochView {
	next := &EpochView{
		epoch:      cur.epoch + 1,
		names:      cur.names,
		byName:     cur.byName,
		nameSorted: cur.nameSorted,
		marks:      cur.marks,
		tuples:     cur.tuples,
		markN:      cur.markN,
	}
	if v.track.rulesDirty {
		next.names = v.rs.names
		next.byName = cloneByName(v.rs.byName)
		next.nameSorted = v.rs.sortedIdx()
	}
	next.post = make([]posting, len(next.names))
	copy(next.post, cur.post)
	epoch := next.epoch
	for _, op := range v.track.pending {
		p := &next.post[op.idx]
		if op.add {
			marks, newKey, changed := amtSet(next.marks, op.id, op.idx, 0, epoch)
			next.marks = marks
			if newKey {
				next.tuples++
			}
			if changed {
				p.root, _, _ = amtSet(p.root, op.id, 0, 0, epoch)
				p.n++
				next.markN++
			}
		} else {
			marks, goneKey, changed := amtClear(next.marks, op.id, op.idx, 0, epoch)
			next.marks = marks
			if goneKey {
				next.tuples--
			}
			if changed {
				p.root, _, _ = amtClear(p.root, op.id, 0, 0, epoch)
				p.n--
				next.markN--
			}
		}
	}
	return next
}

func cloneByName(m map[string]RuleIdx) map[string]RuleIdx {
	c := make(map[string]RuleIdx, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}
