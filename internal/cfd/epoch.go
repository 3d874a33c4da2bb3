package cfd

import (
	"math/bits"
	"sort"

	"repro/internal/relation"
)

// This file is the copy-on-write epoch layer behind every read: the live
// Violations keeps its allocation-free map-and-bitset representation for
// the write path, and mirrors the same state into a persistent
// (path-copied) array-mapped trie that is published as an immutable
// EpochView. The view also carries the per-rule posting tries — the only
// per-rule index there is, so every per-rule read goes through a view.
// Publishing copies only the trie paths the marks since the last publish
// touched — O(|∆V| · depth), independent of |V| — so a writer can emit
// one epoch per applied batch while any number of readers keep answering
// from older epochs without locks, tearing, or copies.

const (
	amtBits = 6
	amtFan  = 1 << amtBits // 64-way fanout
	amtMask = amtFan - 1
)

func onesCount(w uint64) int { return bits.OnesCount64(w) }

// amtLeaf is one (tuple, rule-bitset) entry. Leaves are immutable once
// published: mutation copies the leaf (and its spilled words, if any).
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
// separate packed arrays addressed by two slot bitmaps. Nodes are
// immutable once published; all mutation is by path copy.
type amtNode struct {
	leafBits uint64
	nodeBits uint64
	leaves   []amtLeaf
	nodes    []*amtNode
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

// cloneNode copies n's header and slices (path-copy step).
func cloneNode(n *amtNode) *amtNode {
	c := &amtNode{leafBits: n.leafBits, nodeBits: n.nodeBits}
	c.leaves = append(make([]amtLeaf, 0, len(n.leaves)), n.leaves...)
	c.nodes = append(make([]*amtNode, 0, len(n.nodes)), n.nodes...)
	return c
}

func insertLeaf(leaves []amtLeaf, i int, l amtLeaf) []amtLeaf {
	leaves = append(leaves, amtLeaf{})
	copy(leaves[i+1:], leaves[i:])
	leaves[i] = l
	return leaves
}

func removeLeaf(leaves []amtLeaf, i int) []amtLeaf {
	return append(leaves[:i:i], leaves[i+1:]...)
}

// amtMerge builds the minimal sub-trie holding two distinct-key leaves
// that collide on every slot up to shift.
func amtMerge(a, b amtLeaf, shift uint) *amtNode {
	sa, sb := amtSlot(a.key, shift), amtSlot(b.key, shift)
	if sa == sb {
		return &amtNode{
			nodeBits: 1 << sa,
			nodes:    []*amtNode{amtMerge(a, b, shift+amtBits)},
		}
	}
	if sa > sb {
		a, b = b, a
		sa, sb = sb, sa
	}
	return &amtNode{leafBits: 1<<sa | 1<<sb, leaves: []amtLeaf{a, b}}
}

// amtSet returns the root with bit idx set on key's bitset, copying only
// the path from the root to key. newKey reports key was absent entirely;
// changed reports the bit was newly set.
func amtSet(n *amtNode, key relation.TupleID, idx RuleIdx, shift uint) (out *amtNode, newKey, changed bool) {
	if n == nil {
		return &amtNode{
			leafBits: 1 << amtSlot(key, shift),
			leaves:   []amtLeaf{amtLeaf{key: key}.withBit(idx)},
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
			c := cloneNode(n)
			c.leaves[i] = l.withBit(idx)
			return c, false, true
		}
		// Slot collision with a different key: push both down a level.
		child := amtMerge(l, amtLeaf{key: key}.withBit(idx), shift+amtBits)
		c := cloneNode(n)
		c.leafBits &^= 1 << slot
		c.leaves = removeLeaf(c.leaves, i)
		c.nodeBits |= 1 << slot
		ni := packedIdx(c.nodeBits, slot)
		c.nodes = append(c.nodes, nil)
		copy(c.nodes[ni+1:], c.nodes[ni:])
		c.nodes[ni] = child
		return c, true, true
	case n.nodeBits&(1<<slot) != 0:
		i := packedIdx(n.nodeBits, slot)
		child, nk, ch := amtSet(n.nodes[i], key, idx, shift+amtBits)
		if !ch {
			return n, nk, ch
		}
		c := cloneNode(n)
		c.nodes[i] = child
		return c, nk, ch
	default:
		c := cloneNode(n)
		c.leafBits |= 1 << slot
		c.leaves = insertLeaf(c.leaves, packedIdx(c.leafBits, slot), amtLeaf{key: key}.withBit(idx))
		return c, true, true
	}
}

// amtClear returns the root with bit idx cleared from key's bitset.
// goneKey reports key's last bit left (the leaf was removed); changed
// reports the bit was set before. A root emptied entirely becomes nil.
func amtClear(n *amtNode, key relation.TupleID, idx RuleIdx, shift uint) (out *amtNode, goneKey, changed bool) {
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
			c := cloneNode(n)
			c.leaves[i] = nl
			return c, false, true
		}
		if len(n.leaves) == 1 && n.nodeBits == 0 {
			return nil, true, true
		}
		c := cloneNode(n)
		c.leafBits &^= 1 << slot
		c.leaves = removeLeaf(c.leaves, i)
		return c, true, true
	case n.nodeBits&(1<<slot) != 0:
		i := packedIdx(n.nodeBits, slot)
		child, gone, ch := amtClear(n.nodes[i], key, idx, shift+amtBits)
		if !ch {
			return n, gone, ch
		}
		c := cloneNode(n)
		if child != nil {
			c.nodes[i] = child
			return c, gone, ch
		}
		c.nodeBits &^= 1 << slot
		c.nodes = append(c.nodes[:i:i], c.nodes[i+1:]...)
		if c.leafBits == 0 && c.nodeBits == 0 {
			return nil, gone, ch
		}
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

	marks  *amtNode   // tuple → rule bitset
	post   []*amtNode // per-rule posting set (bit 0 = membership)
	counts []int      // per-rule posting sizes
	tuples int        // |V|
	markN  int        // total (tuple, rule) marks
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
	if int(idx) < 0 || int(idx) >= len(e.counts) {
		return 0
	}
	return e.counts[idx]
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
	amtEach(e.post[idx], func(l *amtLeaf) bool { return f(l.key) })
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
	for _, c := range e.counts {
		if c > 0 {
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

// noteMark records a real bit flip for the next Publish. The pending log
// is bounded: past ~4 flips per resident tuple a full rebuild is cheaper
// than a replay, so the log overflows into rebuild mode instead of
// growing without limit under snapshot-free churn.
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
// immutable EpochView and makes it current, copying only the trie paths
// the flips touched — O(|∆V| · trie depth), independent of |V|. The
// first call builds epoch 1 from the live maps and arms the tracking
// hooks; with nothing pending it returns the current view unchanged.
// Publish is a writer-side operation: callers must serialize it with the
// mutators and hand the returned view to readers themselves (the session
// swaps it into its read state); the view needs no lock.
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
// used for the first epoch and after a pending-log overflow. The
// postings and their counts come out of the same walk.
func (v *Violations) buildEpoch(epoch uint64) *EpochView {
	ev := &EpochView{
		epoch:      epoch,
		names:      v.rs.names,
		byName:     cloneByName(v.rs.byName),
		nameSorted: v.rs.sortedIdx(),
		post:       make([]*amtNode, len(v.rs.names)),
		counts:     make([]int, len(v.rs.names)),
	}
	v.ms.each(func(id relation.TupleID, idx RuleIdx) {
		var newKey bool
		ev.marks, newKey, _ = amtSet(ev.marks, id, idx, 0)
		if newKey {
			ev.tuples++
		}
		ev.post[idx], _, _ = amtSet(ev.post[idx], id, 0, 0)
		ev.counts[idx]++
		ev.markN++
	})
	return ev
}

// applyPending derives the next epoch from cur by replaying the recorded
// flips. The pending log holds exactly the bits that actually flipped on
// the live set since cur was published, in order, so the replay lands
// the tries on the live state precisely.
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
	post := append(make([]*amtNode, 0, len(next.names)), cur.post...)
	counts := append(make([]int, 0, len(next.names)), cur.counts...)
	for len(post) < len(next.names) {
		post, counts = append(post, nil), append(counts, 0)
	}
	for _, op := range v.track.pending {
		if op.add {
			marks, newKey, changed := amtSet(next.marks, op.id, op.idx, 0)
			next.marks = marks
			if newKey {
				next.tuples++
			}
			if changed {
				post[op.idx], _, _ = amtSet(post[op.idx], op.id, 0, 0)
				counts[op.idx]++
				next.markN++
			}
		} else {
			marks, goneKey, changed := amtClear(next.marks, op.id, op.idx, 0)
			next.marks = marks
			if goneKey {
				next.tuples--
			}
			if changed {
				post[op.idx], _, _ = amtClear(post[op.idx], op.id, 0, 0)
				counts[op.idx]--
				next.markN--
			}
		}
	}
	next.post, next.counts = post, counts
	return next
}

func cloneByName(m map[string]RuleIdx) map[string]RuleIdx {
	c := make(map[string]RuleIdx, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}
