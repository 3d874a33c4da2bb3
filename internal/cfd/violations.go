package cfd

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/relation"
)

// RuleIdx is a dense interned rule index, scoped to the Violations or
// Delta that issued it (via Intern). Hot paths intern each rule id once
// and mark violations through AddIdx/RemoveIdx with no string hashing.
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

// remapTo builds the index translation from rs to o (-1 where o lacks
// the rule).
func (rs *ruleSpace) remapTo(o *ruleSpace) []RuleIdx {
	remap := make([]RuleIdx, len(rs.names))
	for i, name := range rs.names {
		if idx, ok := o.lookup(name); ok {
			remap[i] = idx
		} else {
			remap[i] = -1
		}
	}
	return remap
}

// markSet stores a Delta's (tuple, rule-index) marks as per-tuple
// bitsets: one inline uint64 per tuple while every index fits in 64 bits
// (the common case — the paper's |Σ| is 50), spilling to multi-word
// bitsets the first time a higher index is set. Either small or big is
// in use, never both.
type markSet struct {
	small map[relation.TupleID]uint64
	big   map[relation.TupleID][]uint64
}

// set marks (id, idx).
func (m *markSet) set(id relation.TupleID, idx RuleIdx) {
	if m.big == nil && int(idx) >= smallWidth {
		m.big = make(map[relation.TupleID][]uint64, len(m.small))
		for id, w := range m.small {
			m.big[id] = []uint64{w}
		}
		m.small = nil
	}
	if m.big == nil {
		if m.small == nil {
			m.small = make(map[relation.TupleID]uint64)
		}
		m.small[id] |= 1 << uint(idx)
		return
	}
	ws := m.big[id]
	word, bit := int(idx)/64, uint(idx)%64
	for len(ws) <= word {
		ws = append(ws, 0)
	}
	ws[word] |= 1 << bit
	m.big[id] = ws
}

// clear unmarks (id, idx); id leaves the set with its last mark.
func (m *markSet) clear(id relation.TupleID, idx RuleIdx) {
	if m.big == nil {
		w, ok := m.small[id]
		if !ok {
			return
		}
		if w &^= 1 << uint(idx); w == 0 {
			delete(m.small, id)
		} else {
			m.small[id] = w
		}
		return
	}
	ws, ok := m.big[id]
	word, bit := int(idx)/64, uint(idx)%64
	if !ok || word >= len(ws) {
		return
	}
	ws[word] &^= 1 << bit
	for _, w := range ws {
		if w != 0 {
			return
		}
	}
	delete(m.big, id)
}

func (m *markSet) has(id relation.TupleID, idx RuleIdx) bool {
	if m.big == nil {
		return m.small[id]&(1<<uint(idx)) != 0
	}
	ws := m.big[id]
	word, bit := int(idx)/64, uint(idx)%64
	return word < len(ws) && ws[word]&(1<<bit) != 0
}

func (m *markSet) hasTuple(id relation.TupleID) bool {
	if m.big == nil {
		_, ok := m.small[id]
		return ok
	}
	_, ok := m.big[id]
	return ok
}

func (m *markSet) lenTuples() int {
	if m.big == nil {
		return len(m.small)
	}
	return len(m.big)
}

func (m *markSet) marks() int {
	n := 0
	if m.big == nil {
		for _, w := range m.small {
			n += bits.OnesCount64(w)
		}
		return n
	}
	for _, ws := range m.big {
		for _, w := range ws {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// marksOf returns the popcount of id's bitset.
func (m *markSet) marksOf(id relation.TupleID) int {
	if m.big == nil {
		return bits.OnesCount64(m.small[id])
	}
	n := 0
	for _, w := range m.big[id] {
		n += bits.OnesCount64(w)
	}
	return n
}

// eachIdx calls f for every rule index marked on id, ascending.
func (m *markSet) eachIdx(id relation.TupleID, f func(RuleIdx)) {
	if m.big == nil {
		eachBit(m.small[id], 0, f)
		return
	}
	for wi, w := range m.big[id] {
		eachBit(w, wi*64, f)
	}
}

// each calls f for every (id, idx) mark, in map order over ids.
func (m *markSet) each(f func(relation.TupleID, RuleIdx)) {
	if m.big == nil {
		for id := range m.small {
			m.eachIdx(id, func(r RuleIdx) { f(id, r) })
		}
		return
	}
	for id := range m.big {
		m.eachIdx(id, func(r RuleIdx) { f(id, r) })
	}
}

// eachTuple calls f for every marked tuple id, in map order.
func (m *markSet) eachTuple(f func(relation.TupleID)) {
	if m.big == nil {
		for id := range m.small {
			f(id)
		}
		return
	}
	for id := range m.big {
		f(id)
	}
}

// sortedTuples returns the marked ids ascending.
func (m *markSet) sortedTuples() []relation.TupleID {
	out := make([]relation.TupleID, 0, m.lenTuples())
	m.eachTuple(func(id relation.TupleID) { out = append(out, id) })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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
	// holds post, respectively rs.byName, too: the next write copies it.
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

// posting returns rule idx's posting for a write. The first write after
// a seal copies the slice, which a published view or a clone still
// holds; a copy is sized for every interned rule.
func (v *Violations) posting(idx RuleIdx) *posting {
	if v.postShared || int(idx) >= len(v.post) {
		post := make([]posting, max(len(v.post), len(v.rs.names), int(idx)+1))
		copy(post, v.post)
		v.post, v.postShared = post, false
	}
	return &v.post[idx]
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

// Clone returns an independent copy in O(1): both sides share every
// node and copy it on their next write. The clone's epochs count from 1
// again.
func (v *Violations) Clone() *Violations {
	v.seal()
	c := &Violations{EpochView: v.EpochView, postShared: true, namesShared: true, tag: buildTags.Add(1)}
	c.epoch = 0
	return c
}

// RetiredDelta returns the ∆V that retires rules: the removal of every
// mark they hold, read off their postings. v is not changed; the
// engines' RemoveRules apply the result once their own per-rule state is
// gone. Rules v never interned contribute nothing.
func (v *Violations) RetiredDelta(rules []string) *Delta {
	d := NewDelta()
	for _, r := range rules {
		if idx, ok := v.rs.lookup(r); ok {
			m := d.Intern(r)
			v.EachTupleOfRuleIdx(idx, func(id relation.TupleID) bool {
				d.RemoveIdx(id, m)
				return true
			})
		}
	}
	return d
}

// Equal reports whether two violation sets hold identical marks, rule
// ids compared by name, whatever order each set interned them in.
func (v *Violations) Equal(o *Violations) bool {
	return v.tuples == o.tuples && v.markN == o.markN && len(v.Diff(o)) == 0
}

// Diff returns the marks present in v but not in o, as a map id → rules.
func (v *Violations) Diff(o *Violations) map[relation.TupleID][]string {
	out := make(map[relation.TupleID][]string)
	remap := v.rs.remapTo(&o.rs)
	amtEach(v.marks, func(l *amtLeaf) bool {
		ol := amtGet(o.marks, l.key)
		l.each(func(idx RuleIdx) {
			if m := remap[idx]; m < 0 || ol == nil || !ol.has(m) {
				out[l.key] = append(out[l.key], v.rs.names[idx])
			}
		})
		return true
	})
	for id := range out {
		sort.Strings(out[id])
	}
	return out
}

// DeltaBetween returns the canonical net change from old to new:
// ∆V+ holds exactly the marks in new but not old, ∆V− exactly those in
// old but not new. Unlike the delta an incremental run accumulates —
// whose replay semantics may record removals of marks that were never in
// old — the canonical form depends only on the two end states, so any
// two executions landing on the same final violation set produce
// bit-identical canonical deltas.
func DeltaBetween(old, new *Violations) *Delta {
	d := NewDelta()
	for id, rules := range new.Diff(old) {
		for _, r := range rules {
			d.Add(id, r)
		}
	}
	for id, rules := range old.Diff(new) {
		for _, r := range rules {
			d.Remove(id, r)
		}
	}
	return d
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

// Delta is ∆V: the change to a violation set in response to ∆D, split into
// added marks (∆V+) and removed marks (∆V−), each a map of per-tuple rule
// bitsets over the delta's own interned rule space.
type Delta struct {
	rs      ruleSpace
	added   markSet
	removed markSet
}

// NewDelta returns an empty change set.
func NewDelta() *Delta { return &Delta{} }

// Intern returns the dense index for rule within this delta.
func (d *Delta) Intern(rule string) RuleIdx { return d.rs.intern(rule) }

// Add records a new violation mark (∆V+). Mark operations are idempotent
// set writes, so the last operation on a (tuple, rule) pair wins: an
// earlier removal of the same mark is replaced, not merely cancelled —
// replaying the delta must reproduce the final state regardless of
// whether the mark was present initially.
func (d *Delta) Add(id relation.TupleID, rule string) {
	d.AddIdx(id, d.Intern(rule))
}

// AddIdx is Add through a pre-interned index.
func (d *Delta) AddIdx(id relation.TupleID, idx RuleIdx) {
	d.removed.clear(id, idx)
	d.added.set(id, idx)
}

// Remove records a removed violation mark (∆V−), replacing an earlier add
// of the same mark (last operation wins).
func (d *Delta) Remove(id relation.TupleID, rule string) {
	d.RemoveIdx(id, d.Intern(rule))
}

// RemoveIdx is Remove through a pre-interned index.
func (d *Delta) RemoveIdx(id relation.TupleID, idx RuleIdx) {
	d.added.clear(id, idx)
	d.removed.set(id, idx)
}

// Merge folds other into d.
func (d *Delta) Merge(other *Delta) {
	remap := make([]RuleIdx, len(other.rs.names))
	for i, name := range other.rs.names {
		remap[i] = d.Intern(name)
	}
	other.removed.each(func(id relation.TupleID, idx RuleIdx) {
		d.RemoveIdx(id, remap[idx])
	})
	other.added.each(func(id relation.TupleID, idx RuleIdx) {
		d.AddIdx(id, remap[idx])
	})
}

// Empty reports whether the delta changes nothing.
func (d *Delta) Empty() bool {
	return d.added.lenTuples() == 0 && d.removed.lenTuples() == 0
}

// AddedMarks returns the number of (tuple, rule) marks in ∆V+.
func (d *Delta) AddedMarks() int { return d.added.marks() }

// RemovedMarks returns the number of (tuple, rule) marks in ∆V−.
func (d *Delta) RemovedMarks() int { return d.removed.marks() }

// Size returns |∆V| measured in marks.
func (d *Delta) Size() int { return d.AddedMarks() + d.RemovedMarks() }

// AddedTuples returns the ids with at least one added mark, ascending.
func (d *Delta) AddedTuples() []relation.TupleID { return d.added.sortedTuples() }

// RemovedTuples returns the ids with at least one removed mark, ascending.
func (d *Delta) RemovedTuples() []relation.TupleID { return d.removed.sortedTuples() }

// AddedRules returns the rules added for id, sorted.
func (d *Delta) AddedRules(id relation.TupleID) []string { return d.sortedRules(&d.added, id) }

// RemovedRules returns the rules removed for id, sorted.
func (d *Delta) RemovedRules(id relation.TupleID) []string { return d.sortedRules(&d.removed, id) }

func (d *Delta) sortedRules(m *markSet, id relation.TupleID) []string {
	if !m.hasTuple(id) {
		return nil
	}
	out := make([]string, 0, m.marksOf(id))
	for _, idx := range d.rs.sortedIdx() {
		if m.has(id, idx) {
			out = append(out, d.rs.names[idx])
		}
	}
	return out
}

// Apply computes V ⊕ ∆V in place: removed marks are cleared, added marks
// set. Rule names are translated into v's interned space once, not per
// mark.
func (d *Delta) Apply(v *Violations) {
	remap := make([]RuleIdx, len(d.rs.names))
	for i, name := range d.rs.names {
		remap[i] = v.Intern(name)
	}
	d.removed.each(func(id relation.TupleID, idx RuleIdx) {
		v.RemoveIdx(id, remap[idx])
	})
	d.added.each(func(id relation.TupleID, idx RuleIdx) {
		v.AddIdx(id, remap[idx])
	})
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
