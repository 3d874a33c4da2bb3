package cfd

import (
	"cmp"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/relation"
)

// RuleIdx is a dense interned rule index, scoped to the Violations that
// issued it (via Intern). Hot paths intern each rule id once and mark
// violations through AddIdx/RemoveIdx with no string hashing.
type RuleIdx int

// smallWidth is the bitset width of the inline representation: rule sets
// up to 64 rules mark a tuple with a single uint64.
const smallWidth = 64

// ruleSpace interns rule ids into dense indexes.
type ruleSpace struct {
	names  []string
	byName map[string]RuleIdx
	// sortedCache holds the indexes permuted into lexicographic name
	// order; nil when stale. It lets Rules() emit sorted output without
	// sorting per call.
	sortedCache []RuleIdx
}

// intern returns the dense index of rule, assigning the next one on
// first sight.
func (rs *ruleSpace) intern(rule string) RuleIdx {
	if idx, ok := rs.byName[rule]; ok {
		return idx
	}
	if rs.byName == nil {
		rs.byName = make(map[string]RuleIdx, 8)
	}
	idx := RuleIdx(len(rs.names))
	rs.names = append(rs.names, rule)
	rs.byName[rule] = idx
	rs.sortedCache = nil
	return idx
}

func (rs *ruleSpace) lookup(rule string) (RuleIdx, bool) {
	idx, ok := rs.byName[rule]
	return idx, ok
}

// sortedIdx returns the interned indexes in lexicographic name order,
// cached until the next intern.
func (rs *ruleSpace) sortedIdx() []RuleIdx {
	if rs.sortedCache == nil && len(rs.names) > 0 {
		rs.sortedCache = make([]RuleIdx, len(rs.names))
		for i := range rs.sortedCache {
			rs.sortedCache[i] = RuleIdx(i)
		}
		sort.Slice(rs.sortedCache, func(i, j int) bool {
			return rs.names[rs.sortedCache[i]] < rs.names[rs.sortedCache[j]]
		})
	}
	return rs.sortedCache
}

// Violations is V(Σ, D): the set of tuples violating at least one rule,
// with each tuple tagged by the ids of the rules it violates (the paper:
// "violations are marked with those CFDs that they violate"). Rule ids
// are interned into dense indexes and each tuple's marks are a bitset —
// one machine word while |Σ| ≤ 64.
//
// A Violations is the writer's side of the epoch tries (epoch.go): it
// embeds the EpochView it is building and changes that build's nodes in
// place, so a mark costs one trie descent in the marks trie and one in
// the rule's posting trie, and the view's methods answer the writer's
// own reads. Every other reader reads an immutable EpochView that
// Publish seals.
type Violations struct {
	EpochView

	// tag is the build tag of the epoch under construction: nodes that
	// carry it are the writer's alone and change in place.
	tag uint64
	// postShared and namesShared report that a published view or a clone
	// holds post.tail, respectively rs.byName, too: the next write copies
	// it.
	postShared, namesShared bool

	// last is the view the latest Publish returned; dirty reports a
	// change since.
	last  *EpochView
	dirty bool
}

// NewViolations returns an empty violation set. Its first build uses
// tag 0, which no seal ever hands out, so it shares no node with
// anyone.
func NewViolations() *Violations {
	return &Violations{}
}

// Intern returns the dense index for rule, for use with AddIdx,
// RemoveIdx and HasRuleIdx. Indexes are assigned in first-seen order, so
// pre-interning a rule list aligns them with CompileAll's RuleIdx.
func (v *Violations) Intern(rule string) RuleIdx {
	if idx, ok := v.rs.lookup(rule); ok {
		return idx
	}
	if v.namesShared {
		v.rs.byName = maps.Clone(v.rs.byName)
		v.namesShared = false
	}
	v.dirty = true
	return v.rs.intern(rule)
}

// InternRules pre-interns every rule id in order.
func (v *Violations) InternRules(rules []CFD) {
	for i := range rules {
		v.Intern(rules[i].ID)
	}
}

// Add records that tuple id violates rule.
func (v *Violations) Add(id relation.TupleID, rule string) {
	v.AddIdx(id, v.Intern(rule))
}

// AddIdx records a violation mark through a pre-interned index.
func (v *Violations) AddIdx(id relation.TupleID, idx RuleIdx) {
	marks, newKey, changed := amtSet(v.marks, id, idx, 0, v.tag)
	if !changed {
		return
	}
	v.marks = marks
	if newKey {
		v.tuples++
	}
	v.markN++
	p := v.posting(idx)
	p.root, _, _ = amtSet(p.root, id, 0, 0, v.tag)
	p.n++
	v.dirty = true
}

// Remove clears the (id, rule) mark; the tuple leaves V when its last rule
// mark is removed.
func (v *Violations) Remove(id relation.TupleID, rule string) {
	if idx, ok := v.rs.lookup(rule); ok {
		v.RemoveIdx(id, idx)
	}
}

// RemoveIdx clears a violation mark through a pre-interned index.
func (v *Violations) RemoveIdx(id relation.TupleID, idx RuleIdx) {
	marks, goneKey, changed := amtClear(v.marks, id, idx, 0, v.tag)
	if !changed {
		return
	}
	v.marks = marks
	if goneKey {
		v.tuples--
	}
	v.markN--
	p := v.posting(idx)
	p.root, _, _ = amtClear(p.root, id, 0, 0, v.tag)
	p.n--
	v.dirty = true
}

// posting returns rule idx's posting for a write. The first write to a
// chunk in a build copies that chunk alone; past the table's head, the
// first write after a seal also copies the tail, which a published view
// or a clone still holds, sized for every interned rule.
func (v *Violations) posting(idx RuleIdx) *posting {
	ci, head := int(idx)/postChunkLen, len(v.post.head)
	if ci >= head && (v.postShared || ci-head >= len(v.post.tail)) {
		tail := make([]*postChunk, max(len(v.post.tail), (len(v.rs.names)+postChunkLen-1)/postChunkLen-head, ci+1-head))
		copy(tail, v.post.tail)
		v.post.tail, v.postShared = tail, false
	}
	slot := v.post.slot(ci)
	c := *slot
	if c == nil || c.tag != v.tag {
		nc := &postChunk{tag: v.tag}
		if c != nil {
			nc.p = c.p
		}
		c, *slot = nc, nc
	}
	return &c.p[int(idx)%postChunkLen]
}

// seal ends the current build: from here on the writer copies whatever
// it shares with the sealed state before changing it. The names are
// clipped so the next intern appends to a fresh array, post and byName
// are marked shared, the sorted name order is computed for readers, and
// a fresh tag makes every node built so far immutable.
func (v *Violations) seal() {
	v.rs.sortedIdx()
	v.rs.names = slices.Clip(v.rs.names)
	v.postShared, v.namesShared = true, true
	v.tag = buildTags.Add(1)
}

// Publish seals every change since the last publish into a new immutable
// EpochView and makes it current; with nothing changed it returns the
// current view. The build already holds the new epoch's tries, so a
// publish is O(1): it copies the view header and seals the build.
// Publish is a writer-side operation: callers must serialize it with the
// mutators and hand the returned view to readers themselves (the session
// swaps it into its read state); the view needs no lock.
func (v *Violations) Publish() *EpochView {
	if v.last == nil || v.dirty {
		v.epoch++
		v.seal()
		e := v.EpochView
		v.last, v.dirty = &e, false
	}
	return v.last
}

// Seal ends the current build and returns v as it stands, as a view
// no later change of v reaches: the view Publish last returned when
// nothing changed since, else the build sealed in place, in O(1) either
// way. Unlike Publish it makes no epoch; an engine seals V at the start
// of a round and returns DeltaSince of it as the round's ∆V.
func (v *Violations) Seal() EpochView {
	if v.last != nil && !v.dirty {
		return *v.last
	}
	v.seal()
	return v.EpochView
}

// DeltaSince returns DeltaBetween of old, a view of v's own history
// (Seal, Publish), and v: ∆V from then to now.
func (v *Violations) DeltaSince(old *EpochView) *Delta {
	return diffViews(old, &v.EpochView)
}

// Clone returns an independent copy in O(1): both sides share every
// node and copy it on their next write. The clone's epochs count from 1
// again.
func (v *Violations) Clone() *Violations {
	v.seal()
	c := &Violations{EpochView: v.EpochView, postShared: true, namesShared: true, tag: buildTags.Add(1)}
	c.epoch = 0
	return c
}

// ClearRules removes every mark of rules from v, reading the tuples off
// the rules' postings; a rule v never interned clears nothing. The rules
// stay interned. The engines' RemoveRules retire marks through it.
func (v *Violations) ClearRules(rules []string) {
	v.seal() // the postings walked below stay as they are while v copies what it changes
	for _, r := range rules {
		if idx, ok := v.rs.lookup(r); ok {
			amtEach(v.postingOf(idx).root, func(l *amtLeaf) bool {
				v.RemoveIdx(l.key, idx)
				return true
			})
		}
	}
}

// Rollback discards every change since the last Publish: the writer
// goes back to the view Publish returned, in O(1), since that view's
// nodes are sealed and the writer copies them before changing them. A
// set never published has no such view and stays as it is. A refused
// round ends here, so V never holds half a round.
func (v *Violations) Rollback() {
	if v.last == nil || !v.dirty {
		return
	}
	v.EpochView = *v.last
	v.postShared, v.namesShared, v.dirty = true, true, false
}

// Equal reports whether two violation sets hold identical marks, rule
// ids compared by name, whatever order each set interned them in.
func (v *Violations) Equal(o *Violations) bool {
	return v.tuples == o.tuples && v.markN == o.markN && DeltaBetween(o, v).Empty()
}

// Diff returns the marks present in v but not in o, as a map id → rules
// (sorted): DeltaBetween(o, v)'s ∆V+.
func (v *Violations) Diff(o *Violations) map[relation.TupleID][]string {
	d := DeltaBetween(o, v)
	out := make(map[relation.TupleID][]string, len(d.added))
	for _, l := range d.added {
		out[l.key] = d.AddedRules(l.key)
	}
	return out
}

// DeltaBetween returns ∆V from old to new: ∆V+ holds exactly the marks
// in new but not old, ∆V− exactly those in old but not new. It depends
// only on the two sets, so any two executions landing on the same sets
// produce bit-identical deltas; every engine returns a round's ∆V as
// DeltaBetween of V before and after the round.
//
// The walk goes down both mark tries together and skips every sub-trie
// the two hold by the same pointer: a sealed node is never written again
// (epoch.go), so one pointer is one set of marks. Two epochs of one
// writer therefore diff in O(nodes changed between them), not O(|V|);
// unrelated sets share no node and are compared in full.
func DeltaBetween(old, new *Violations) *Delta {
	return diffViews(&old.EpochView, &new.EpochView)
}

// diffViews is DeltaBetween over two views.
func diffViews(old, new *EpochView) *Delta {
	w := differs.Get().(*differ)
	defer func() {
		w.reset()
		differs.Put(w)
	}()
	var rs ruleSpace
	if oldNames, newNames := old.rs.names, new.rs.names; len(oldNames) <= len(newNames) &&
		(len(oldNames) == 0 || &oldNames[0] == &newNames[0] || slices.Equal(oldNames, newNames[:len(oldNames)])) {
		// Old's names open new's, as in two epochs of one writer (which
		// share the array until the writer next interns a rule): old's
		// rule indexes mean what new's do.
		rs = ruleSpace{names: slices.Clip(newNames), sortedCache: new.rs.sortedCache}
	} else {
		for _, name := range new.rs.names {
			rs.intern(name)
		}
		w.remap = make([]RuleIdx, len(old.rs.names))
		for i, name := range old.rs.names {
			w.remap[i] = rs.intern(name)
		}
	}
	w.nodes(old.marks, new.marks, 0)
	n := len(w.added) + len(w.removed)
	if n == 0 {
		return &noChange
	}
	var d *Delta
	var buf []amtLeaf
	if n <= 2 {
		p := &deltaPair{}
		d, buf = &p.Delta, p.buf[:n]
	} else {
		d, buf = &Delta{}, make([]amtLeaf, n)
	}
	d.rs = rs
	d.rs.sortedIdx()
	d.added, d.removed = buf[:copy(buf, w.added)], buf[len(w.added):]
	copy(d.removed, w.removed)
	slices.SortFunc(d.added, byKey)
	slices.SortFunc(d.removed, byKey)
	return d
}

// noChange is every diff's delta when the two sides hold the same
// marks: a Delta is read-only, so one serves them all.
var noChange Delta

// deltaPair is a delta allocated together with room for two leaves, the
// whole change of most one-update rounds.
type deltaPair struct {
	Delta
	buf [2]amtLeaf
}

func byKey(a, b amtLeaf) int { return cmp.Compare(a.key, b.key) }

// differ is one DeltaBetween walk: it collects the tuples whose marks
// differ, as the leaves of the bits only old sets (removed) and only new
// sets (added). remap translates old's rule indexes into the delta's;
// nil when they already agree. visited counts the node pairs compared.
type differ struct {
	added, removed []amtLeaf
	remap          []RuleIdx
	visited        int
}

// differs keeps walks' leaf buffers between calls, so a delta costs one
// array for its leaves.
var differs = sync.Pool{New: func() any { return new(differ) }}

// reset empties w for another walk, keeping its buffers' arrays.
func (w *differ) reset() {
	clear(w.added)
	clear(w.removed)
	*w = differ{added: w.added[:0], removed: w.removed[:0]}
}

// nodes diffs the sub-tries o and n, both rooted at shift.
func (w *differ) nodes(o, n *amtNode, shift uint) {
	if o == n {
		return
	}
	w.visited++
	if o == nil || n == nil {
		amtEach(o, func(l *amtLeaf) bool { w.pair(l, nil); return true })
		amtEach(n, func(l *amtLeaf) bool { w.pair(nil, l); return true })
		return
	}
	if o.leafBits == n.leafBits && o.nodeBits == n.nodeBits {
		// One shape, the common case: slot i of one side is slot i of
		// the other.
		if len(o.leaves) > 0 && &o.leaves[0] != &n.leaves[0] { // a shared array holds the same leaves
			for i := range o.leaves {
				w.leaves(&o.leaves[i], &n.leaves[i])
			}
		}
		for i, c := range o.nodes {
			if c != n.nodes[i] {
				w.nodes(c, n.nodes[i], shift+amtBits)
			}
		}
		return
	}
	for slots := o.leafBits | o.nodeBits | n.leafBits | n.nodeBits; slots != 0; slots &= slots - 1 {
		slot := uint(bits.TrailingZeros64(slots))
		ol, oc := o.at(slot)
		nl, nc := n.at(slot)
		// A leaf against a sub-trie: the leaf goes down a level in a
		// one-leaf node, and the two compare as sub-tries.
		switch {
		case ol != nil && nc != nil:
			oc, ol = leafNode(1<<amtSlot(ol.key, shift+amtBits), 0, *ol), nil
		case nl != nil && oc != nil:
			nc, nl = leafNode(1<<amtSlot(nl.key, shift+amtBits), 0, *nl), nil
		}
		switch {
		case ol != nil && nl != nil:
			w.leaves(ol, nl)
		case ol != nil || nl != nil:
			w.pair(ol, nil)
			w.pair(nil, nl)
		default:
			w.nodes(oc, nc, shift+amtBits)
		}
	}
}

// leaves diffs the two leaves one slot holds, skipping equal ones.
func (w *differ) leaves(o, n *amtLeaf) {
	switch {
	case o.key != n.key:
		w.pair(o, nil)
		w.pair(nil, n)
	case w.remap != nil || o.ws != nil || n.ws != nil || o.w != n.w:
		w.pair(o, n)
	}
}

// pair records how one tuple's marks differ: o and n are its leaves in
// old and new, nil where the tuple is absent.
func (w *differ) pair(o, n *amtLeaf) {
	if o != nil && w.remap != nil {
		t := amtLeaf{key: o.key}
		o.each(func(idx RuleIdx) { t = t.withBit(w.remap[idx]) })
		o = &t
	}
	if gone, ok := leafMinus(o, n); ok {
		w.removed = append(w.removed, gone)
	}
	if came, ok := leafMinus(n, o); ok {
		w.added = append(w.added, came)
	}
}

// leafMinus returns the leaf of a's key holding the bits a sets and b
// does not (all of a's when b is nil); ok is false when there are none.
func leafMinus(a, b *amtLeaf) (out amtLeaf, ok bool) {
	switch {
	case a == nil:
		return amtLeaf{}, false
	case b == nil:
		return *a, true // a trie leaf always holds a bit
	case a.ws == nil && b.ws == nil:
		out = amtLeaf{key: a.key, w: a.w &^ b.w}
		return out, out.w != 0
	}
	out = amtLeaf{key: a.key}
	a.each(func(idx RuleIdx) {
		if !b.has(idx) {
			out = out.withBit(idx)
		}
	})
	return out, out.w != 0 || out.ws != nil
}

func (v *Violations) String() string {
	var sb strings.Builder
	for i, id := range v.Tuples() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "t%d{%s}", id, strings.Join(v.Rules(id), ","))
	}
	return "{" + sb.String() + "}"
}

// Delta is ∆V: the change from one violation set to another, split into
// added marks (∆V+) and removed marks (∆V−). DeltaBetween derives it from
// the two sets, and it is read-only. Each side holds one rule bitset per
// tuple, ascending by tuple id, over the delta's rule names.
type Delta struct {
	rs             ruleSpace
	added, removed []amtLeaf
}

// Empty reports whether the delta changes nothing.
func (d *Delta) Empty() bool { return len(d.added) == 0 && len(d.removed) == 0 }

// AddedMarks returns the number of (tuple, rule) marks in ∆V+.
func (d *Delta) AddedMarks() int { return countMarks(d.added) }

// RemovedMarks returns the number of (tuple, rule) marks in ∆V−.
func (d *Delta) RemovedMarks() int { return countMarks(d.removed) }

// Size returns |∆V| measured in marks.
func (d *Delta) Size() int { return d.AddedMarks() + d.RemovedMarks() }

// AddedTuples returns the ids with at least one added mark, ascending.
func (d *Delta) AddedTuples() []relation.TupleID { return keys(d.added) }

// RemovedTuples returns the ids with at least one removed mark, ascending.
func (d *Delta) RemovedTuples() []relation.TupleID { return keys(d.removed) }

// AddedRules returns the rules added for id, sorted.
func (d *Delta) AddedRules(id relation.TupleID) []string { return d.rules(d.added, id) }

// RemovedRules returns the rules removed for id, sorted.
func (d *Delta) RemovedRules(id relation.TupleID) []string { return d.rules(d.removed, id) }

func (d *Delta) rules(side []amtLeaf, id relation.TupleID) []string {
	i, ok := slices.BinarySearchFunc(side, id, func(l amtLeaf, id relation.TupleID) int { return cmp.Compare(l.key, id) })
	if !ok {
		return nil
	}
	l := &side[i]
	out := make([]string, 0, l.marks())
	for _, idx := range d.rs.sortedIdx() {
		if l.has(idx) {
			out = append(out, d.rs.names[idx])
		}
	}
	return out
}

func countMarks(side []amtLeaf) int {
	n := 0
	for i := range side {
		n += side[i].marks()
	}
	return n
}

func keys(side []amtLeaf) []relation.TupleID {
	out := make([]relation.TupleID, len(side))
	for i := range side {
		out[i] = side[i].key
	}
	return out
}

func (d *Delta) String() string {
	var sb strings.Builder
	sb.WriteString("∆V+={")
	for i, id := range d.AddedTuples() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "t%d{%s}", id, strings.Join(d.AddedRules(id), ","))
	}
	sb.WriteString("} ∆V−={")
	for i, id := range d.RemovedTuples() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "t%d{%s}", id, strings.Join(d.RemovedRules(id), ","))
	}
	sb.WriteString("}")
	return sb.String()
}
