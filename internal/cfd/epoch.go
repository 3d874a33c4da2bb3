package cfd

import (
	"math/bits"
	"sort"
	"sync/atomic"

	"repro/internal/relation"
)

// This file is the one representation of the violation state: a
// persistent array-mapped trie of per-tuple rule bitsets plus one posting
// trie per rule — the only per-rule index there is. The writer
// (Violations, violations.go) changes the tries of the epoch it is
// building in place; Publish seals that build as an immutable EpochView,
// so any number of readers keep answering from older epochs without
// locks, tearing, or copies while the writer builds the next one.
//
// Ownership follows Clojure's transients: every node carries the tag of
// the build that created it. A build mutates a node carrying its own tag
// in place and copies any other node once, tagging the copy, so between
// two publishes each node on the union of the changed paths is copied at
// most once, however many flips land below it — O(|∆V| · depth),
// independent of |V|. The copy is the node's header: it shares the older
// node's leaf and child arrays and copies each only on its first edit in
// the build, so an inner node on a flip's path copies its child array
// and the bottom node its leaf array, never both. Whether a node may
// edit an array in place is its own flag, set where the build made the
// array; an array of capacity zero holds nothing to share. The per-rule
// postings sit in chunks of postChunkLen (postTable), each chunk tagged
// like a node, so a write after a seal copies the one chunk it changes,
// plus, past the first smallWidth rules, the table's tail. Tags come from one
// package counter: a seal (Publish or Clone) hands the writer a tag no
// node carries yet, so the nodes of a sealed build are never written
// again, and a set and its clone never build with the same tag.

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

// each calls f for every rule index set on the leaf, ascending.
func (l *amtLeaf) each(f func(RuleIdx)) {
	if l.ws == nil {
		eachBit(l.w, 0, f)
		return
	}
	for wi, w := range l.ws {
		eachBit(w, wi*64, f)
	}
}

// eachBit calls f(base+b) for every set bit b of w, ascending.
func eachBit(w uint64, base int, f func(RuleIdx)) {
	for w != 0 {
		b := bits.TrailingZeros64(w)
		f(RuleIdx(base + b))
		w &^= 1 << uint(b)
	}
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
// separate packed arrays addressed by two slot bitmaps. tag names the
// build that created the node: that build alone may change it in place;
// every other build copies it before a change (own), so a node is
// immutable once its build is sealed. ownLeaves and ownNodes report that
// the build made the array too, so it may edit it in place; a copy's
// arrays are its older node's until its first edit (writeLeaves,
// writeNodes).
type amtNode struct {
	leafBits            uint64
	nodeBits            uint64
	leaves              []amtLeaf
	nodes               []*amtNode
	tag                 uint64
	ownLeaves, ownNodes bool
}

// buildTags issues build tags; see the ownership note above.
var buildTags atomic.Uint64

func packedIdx(bits uint64, slot uint) int {
	return onesCount(bits & (1<<slot - 1))
}

func amtSlot(key relation.TupleID, shift uint) uint {
	return uint(uint64(key)>>shift) & amtMask
}

// at returns what n holds at slot: a leaf, a sub-trie, or neither.
func (n *amtNode) at(slot uint) (*amtLeaf, *amtNode) {
	switch {
	case n.leafBits&(1<<slot) != 0:
		return &n.leaves[packedIdx(n.leafBits, slot)], nil
	case n.nodeBits&(1<<slot) != 0:
		return nil, n.nodes[packedIdx(n.nodeBits, slot)]
	}
	return nil, nil
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

// own returns n when the build tagged tag created it, and otherwise a
// copy of its header carrying tag, sharing both of n's arrays.
func own(n *amtNode, tag uint64) *amtNode {
	if n.tag == tag {
		return n
	}
	return &amtNode{leafBits: n.leafBits, nodeBits: n.nodeBits, leaves: n.leaves, nodes: n.nodes, tag: tag}
}

// writeLeaves readies an owned node's leaf array for an edit in place:
// an array the node shares with an older one is copied first, with room
// for one more leaf so the insert that often follows does not grow it
// again. Sharing is read off the capacity, not the length: an emptied
// array with spare room still belongs to the older node.
func (n *amtNode) writeLeaves() {
	if !n.ownLeaves && cap(n.leaves) > 0 {
		n.leaves = append(make([]amtLeaf, 0, len(n.leaves)+1), n.leaves...)
	}
	n.ownLeaves = true
}

// writeNodes is writeLeaves for the child array.
func (n *amtNode) writeNodes() {
	if !n.ownNodes && cap(n.nodes) > 0 {
		n.nodes = append(make([]*amtNode, 0, len(n.nodes)+1), n.nodes...)
	}
	n.ownNodes = true
}

// setChild points an owned node's child slot i at c, touching the child
// array only when c is not already there (a child the build owns changes
// in place and comes back as itself).
func (n *amtNode) setChild(i int, c *amtNode) {
	if n.nodes[i] != c {
		n.writeNodes()
		n.nodes[i] = c
	}
}

// The four array edits below work in place: callers apply them only to
// an array they made writable (writeLeaves, writeNodes).

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
// that collide on every slot up to shift, its nodes carrying tag.
func amtMerge(a, b amtLeaf, shift uint, tag uint64) *amtNode {
	sa, sb := amtSlot(a.key, shift), amtSlot(b.key, shift)
	if sa == sb {
		return &amtNode{
			nodeBits: 1 << sa,
			nodes:    []*amtNode{amtMerge(a, b, shift+amtBits, tag)},
			tag:      tag,
			ownNodes: true,
		}
	}
	if sa > sb {
		a, b = b, a
		sa, sb = sb, sa
	}
	return leafNode(1<<sa|1<<sb, tag, a, b)
}

// leafPair is a node allocated together with room for two leaves.
type leafPair struct {
	amtNode
	buf [2]amtLeaf
}

// leafNode returns a node carrying tag that holds only ls (at most two),
// in one allocation with its leaf array.
func leafNode(leafBits, tag uint64, ls ...amtLeaf) *amtNode {
	p := &leafPair{amtNode: amtNode{leafBits: leafBits, tag: tag, ownLeaves: true}}
	p.leaves = append(p.buf[:0], ls...)
	return &p.amtNode
}

// amtSet returns the root with bit idx set on key's bitset, as built by
// the build tagged tag: its nodes on the path to key change in place,
// others are copied once (own). newKey reports key was absent entirely;
// changed reports the bit was newly set. An unchanged trie comes back
// as n, uncopied.
func amtSet(n *amtNode, key relation.TupleID, idx RuleIdx, shift uint, tag uint64) (out *amtNode, newKey, changed bool) {
	if n == nil {
		return leafNode(1<<amtSlot(key, shift), tag, amtLeaf{key: key}.withBit(idx)), true, true
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
			c := own(n, tag)
			c.writeLeaves()
			c.leaves[i] = l.withBit(idx)
			return c, false, true
		}
		// Slot collision with a different key: push both down a level.
		child := amtMerge(l, amtLeaf{key: key}.withBit(idx), shift+amtBits, tag)
		c := own(n, tag)
		c.writeLeaves()
		c.writeNodes()
		c.leafBits &^= 1 << slot
		c.leaves = removeLeaf(c.leaves, i)
		c.nodeBits |= 1 << slot
		c.nodes = insertNode(c.nodes, packedIdx(c.nodeBits, slot), child)
		return c, true, true
	case n.nodeBits&(1<<slot) != 0:
		i := packedIdx(n.nodeBits, slot)
		child, nk, ch := amtSet(n.nodes[i], key, idx, shift+amtBits, tag)
		if !ch {
			return n, nk, ch
		}
		c := own(n, tag)
		c.setChild(i, child)
		return c, nk, ch
	default:
		c := own(n, tag)
		c.writeLeaves()
		c.leafBits |= 1 << slot
		c.leaves = insertLeaf(c.leaves, packedIdx(c.leafBits, slot), amtLeaf{key: key}.withBit(idx))
		return c, true, true
	}
}

// amtClear returns the root with bit idx cleared from key's bitset, as
// built by the build tagged tag (see amtSet). goneKey reports key's last
// bit left (the leaf was removed); changed reports the bit was set
// before. An emptied inner node is pruned, and so is an emptied root the
// build does not own; an emptied root it owns stays, empty, so the next
// insert reuses it.
func amtClear(n *amtNode, key relation.TupleID, idx RuleIdx, shift uint, tag uint64) (out *amtNode, goneKey, changed bool) {
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
			c := own(n, tag)
			c.writeLeaves()
			c.leaves[i] = nl
			return c, false, true
		}
		prune := shift > 0 || n.tag != tag
		if prune && len(n.leaves) == 1 && n.nodeBits == 0 {
			return nil, true, true
		}
		c := own(n, tag)
		c.writeLeaves()
		c.leafBits &^= 1 << slot
		c.leaves = removeLeaf(c.leaves, i)
		return c, true, true
	case n.nodeBits&(1<<slot) != 0:
		i := packedIdx(n.nodeBits, slot)
		child, gone, ch := amtClear(n.nodes[i], key, idx, shift+amtBits, tag)
		if !ch {
			return n, gone, ch
		}
		prune := shift > 0 || n.tag != tag
		if prune && child == nil && len(n.nodes) == 1 && n.leafBits == 0 {
			return nil, gone, ch
		}
		c := own(n, tag)
		if child != nil {
			c.setChild(i, child)
			return c, gone, ch
		}
		c.writeNodes()
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

// EpochView is one epoch of the violation state: the mark bitsets, the
// per-rule posting indexes and the aggregate counters, all behind
// persistent tries. A published view never changes after Publish returns
// it, is safe for any number of concurrent readers, and is where every
// per-rule query is answered in O(answer). The writer's Violations embeds
// the view it is building, so the same methods answer its own reads.
type EpochView struct {
	epoch uint64

	rs     ruleSpace
	marks  *amtNode // tuple → rule bitset
	post   postTable
	tuples int // |V|
	markN  int // total (tuple, rule) marks
}

// posting is one rule's posting set (bit 0 = membership) and its size.
type posting struct {
	root *amtNode
	n    int
}

// postChunkLen is how many rules' postings share one chunk: a write
// after a seal copies the one chunk holding its rule, not every posting.
const postChunkLen = 16

// postChunk is one chunk of postings, tagged like a trie node with the
// build that made it, the only one that writes it in place.
type postChunk struct {
	p   [postChunkLen]posting
	tag uint64
}

// postTable holds the postings by rule index in chunks. The chunks of
// the first smallWidth rules sit in head, which travels inside the view,
// so a view copy copies it; the rest sit in tail, which a sealed view
// shares until the writer's next write there copies it. It may cover
// fewer rules than are interned, and a nil chunk holds no posting.
type postTable struct {
	head [smallWidth / postChunkLen]*postChunk
	tail []*postChunk
}

// slot returns where chunk ci sits, nil past the table.
func (t *postTable) slot(ci int) **postChunk {
	if ci < len(t.head) {
		return &t.head[ci]
	}
	if ci -= len(t.head); ci < len(t.tail) {
		return &t.tail[ci]
	}
	return nil
}

// postingOf returns rule idx's posting, empty for a rule it holds none of.
func (e *EpochView) postingOf(idx RuleIdx) posting {
	if idx < 0 {
		return posting{}
	}
	if c := e.post.slot(int(idx) / postChunkLen); c != nil && *c != nil {
		return (*c).p[int(idx)%postChunkLen]
	}
	return posting{}
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
	idx, ok := e.rs.lookup(rule)
	return ok && e.HasRuleIdx(id, idx)
}

// LookupRule returns the interned index of rule, if any.
func (e *EpochView) LookupRule(rule string) (RuleIdx, bool) {
	return e.rs.lookup(rule)
}

// Rules returns the sorted rule ids violated by the tuple.
func (e *EpochView) Rules(id relation.TupleID) []string {
	l := amtGet(e.marks, id)
	if l == nil {
		return nil
	}
	out := make([]string, 0, l.marks())
	for _, idx := range e.rs.sortedIdx() {
		if l.has(idx) {
			out = append(out, e.rs.names[idx])
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
func (e *EpochView) CountIdx(idx RuleIdx) int { return e.postingOf(idx).n }

// CountRule returns the number of tuples violating rule, in O(1).
func (e *EpochView) CountRule(rule string) int {
	idx, ok := e.rs.lookup(rule)
	if !ok {
		return 0
	}
	return e.CountIdx(idx)
}

// EachTupleOfRuleIdx calls f for every tuple violating the rule with the
// given interned index; f returning false stops. Cost is O(visited).
func (e *EpochView) EachTupleOfRuleIdx(idx RuleIdx, f func(relation.TupleID) bool) {
	amtEach(e.postingOf(idx).root, func(l *amtLeaf) bool { return f(l.key) })
}

// EachTupleOfRule is EachTupleOfRuleIdx by rule id.
func (e *EpochView) EachTupleOfRule(rule string, f func(relation.TupleID) bool) {
	if idx, ok := e.rs.lookup(rule); ok {
		e.EachTupleOfRuleIdx(idx, f)
	}
}

// TuplesOfRule returns the tuples violating rule in ascending order.
func (e *EpochView) TuplesOfRule(rule string) []relation.TupleID {
	idx, ok := e.rs.lookup(rule)
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
	sorted := e.rs.sortedIdx()
	out := make([]RuleCount, len(sorted))
	for i, idx := range sorted {
		out[i] = RuleCount{Rule: e.rs.names[idx], Count: e.CountIdx(idx)}
	}
	return out
}

// Measure computes the aggregate inconsistency measures at this epoch.
func (e *EpochView) Measure() Measures {
	m := Measures{ViolatingTuples: e.tuples, Marks: e.markN}
	if m.ViolatingTuples > 0 {
		m.Drastic = 1
	}
	for _, chunks := range [][]*postChunk{e.post.head[:], e.post.tail} {
		for _, c := range chunks {
			for i := 0; c != nil && i < len(c.p); i++ {
				if c.p[i].n > 0 {
					m.RulesViolated++
				}
			}
		}
	}
	return m
}
