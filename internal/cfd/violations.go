package cfd

import (
	"fmt"
	"math/bits"
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
// first sight. The second result reports whether the rule was new.
func (rs *ruleSpace) intern(rule string) (RuleIdx, bool) {
	if idx, ok := rs.byName[rule]; ok {
		return idx, false
	}
	if rs.byName == nil {
		rs.byName = make(map[string]RuleIdx, 8)
	}
	idx := RuleIdx(len(rs.names))
	rs.names = append(rs.names, rule)
	rs.byName[rule] = idx
	rs.sortedCache = nil
	return idx, true
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
// the rule). identity reports both spaces agree name-for-name in order,
// enabling word-level bitset comparison.
func (rs *ruleSpace) remapTo(o *ruleSpace) (remap []RuleIdx, identity bool) {
	remap = make([]RuleIdx, len(rs.names))
	identity = len(rs.names) == len(o.names)
	for i, name := range rs.names {
		if idx, ok := o.lookup(name); ok {
			remap[i] = idx
			if idx != RuleIdx(i) {
				identity = false
			}
		} else {
			remap[i] = -1
			identity = false
		}
	}
	return remap, identity
}

func (rs *ruleSpace) clone() ruleSpace {
	c := ruleSpace{names: append([]string(nil), rs.names...)}
	if rs.byName != nil {
		c.byName = make(map[string]RuleIdx, len(rs.byName))
		for k, v := range rs.byName {
			c.byName[k] = v
		}
	}
	return c
}

// markSet stores (tuple, rule-index) marks as per-tuple bitsets: one
// inline uint64 per tuple while every interned index fits in 64 bits
// (the common case — the paper's |Σ| is 50), spilling to multi-word
// bitsets beyond. Either small or big is in use, never both.
type markSet struct {
	small map[relation.TupleID]uint64
	big   map[relation.TupleID][]uint64
}

// spill migrates the inline representation to multi-word bitsets; called
// by the owner when rule index 64 is first interned.
func (m *markSet) spill() {
	if m.big != nil {
		return
	}
	m.big = make(map[relation.TupleID][]uint64, len(m.small))
	for id, w := range m.small {
		m.big[id] = []uint64{w}
	}
	m.small = nil
}

func (m *markSet) spilled() bool { return m.big != nil }

// set marks (id, idx); newTuple reports whether id was previously
// unmarked entirely, changed whether the (id, idx) bit was newly set.
func (m *markSet) set(id relation.TupleID, idx RuleIdx) (newTuple, changed bool) {
	if m.big == nil {
		w, ok := m.small[id]
		if m.small == nil {
			m.small = make(map[relation.TupleID]uint64)
		}
		bit := uint64(1) << uint(idx)
		m.small[id] = w | bit
		return !ok, w&bit == 0
	}
	ws, ok := m.big[id]
	word, bit := int(idx)/64, uint(idx)%64
	for len(ws) <= word {
		ws = append(ws, 0)
	}
	changed = ws[word]&(1<<bit) == 0
	ws[word] |= 1 << bit
	m.big[id] = ws
	return !ok, changed
}

// clear unmarks (id, idx); gone reports whether id's last mark left,
// changed whether the (id, idx) bit was actually cleared.
func (m *markSet) clear(id relation.TupleID, idx RuleIdx) (gone, changed bool) {
	if m.big == nil {
		w, ok := m.small[id]
		if !ok {
			return false, false
		}
		bit := uint64(1) << uint(idx)
		changed = w&bit != 0
		w &^= bit
		if w == 0 {
			delete(m.small, id)
			return true, changed
		}
		m.small[id] = w
		return false, changed
	}
	ws, ok := m.big[id]
	if !ok {
		return false, false
	}
	word, bit := int(idx)/64, uint(idx)%64
	if word >= len(ws) {
		return false, false
	}
	changed = ws[word]&(1<<bit) != 0
	ws[word] &^= 1 << bit
	for _, w := range ws {
		if w != 0 {
			return false, changed
		}
	}
	delete(m.big, id)
	return true, changed
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
		w := m.small[id]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(RuleIdx(b))
			w &^= 1 << uint(b)
		}
		return
	}
	for wi, w := range m.big[id] {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(RuleIdx(wi*64 + b))
			w &^= 1 << uint(b)
		}
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

func (m *markSet) clone() markSet {
	var c markSet
	if m.small != nil {
		c.small = make(map[relation.TupleID]uint64, len(m.small))
		for id, w := range m.small {
			c.small[id] = w
		}
	}
	if m.big != nil {
		c.big = make(map[relation.TupleID][]uint64, len(m.big))
		for id, ws := range m.big {
			c.big[id] = append([]uint64(nil), ws...)
		}
	}
	return c
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
// one machine word while |Σ| ≤ 64 — so maintaining a mark never
// allocates on a warm path.
//
// A Violations is the writer's live set: it changes with every mark and
// only its writer reads it. Every other reader reads an immutable
// EpochView that Publish cuts from it.
type Violations struct {
	rs ruleSpace
	// ms is the only live structure: per-tuple rule bitsets. The
	// per-rule posting index exists only in the published epochs
	// (epoch.go), where every per-rule read is answered.
	ms markSet

	// tuplesCache holds Tuples()' sorted output; nil when stale.
	tuplesCache []relation.TupleID

	// track is the copy-on-write epoch machinery (epoch.go), armed by the
	// first Publish; nil until then, so violation sets that are never
	// published pay nothing on the mark path.
	track *epochTrack
}

// NewViolations returns an empty violation set.
func NewViolations() *Violations {
	return &Violations{}
}

// Intern returns the dense index for rule, for use with AddIdx,
// RemoveIdx and HasRuleIdx. Indexes are assigned in first-seen order, so
// pre-interning a rule list aligns them with CompileAll's RuleIdx.
func (v *Violations) Intern(rule string) RuleIdx {
	idx, fresh := v.rs.intern(rule)
	if fresh && int(idx) == smallWidth {
		v.ms.spill()
	}
	if fresh && v.track != nil {
		v.track.rulesDirty = true
	}
	return idx
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
	newTuple, changed := v.ms.set(id, idx)
	if newTuple {
		v.tuplesCache = nil
	}
	if changed && v.track != nil {
		v.noteMark(id, idx, true)
	}
}

// Remove clears the (id, rule) mark; the tuple leaves V when its last rule
// mark is removed.
func (v *Violations) Remove(id relation.TupleID, rule string) {
	idx, ok := v.rs.lookup(rule)
	if !ok {
		return
	}
	v.RemoveIdx(id, idx)
}

// RemoveIdx clears a violation mark through a pre-interned index.
func (v *Violations) RemoveIdx(id relation.TupleID, idx RuleIdx) {
	gone, changed := v.ms.clear(id, idx)
	if gone {
		v.tuplesCache = nil
	}
	if changed && v.track != nil {
		v.noteMark(id, idx, false)
	}
}

// Has reports whether the tuple violates any rule.
func (v *Violations) Has(id relation.TupleID) bool {
	return v.ms.hasTuple(id)
}

// HasRule reports whether the tuple violates the given rule.
func (v *Violations) HasRule(id relation.TupleID, rule string) bool {
	idx, ok := v.rs.lookup(rule)
	return ok && v.ms.has(id, idx)
}

// HasRuleIdx reports whether the tuple violates the rule with the given
// interned index.
func (v *Violations) HasRuleIdx(id relation.TupleID, idx RuleIdx) bool {
	return v.ms.has(id, idx)
}

// Rules returns the sorted rule ids violated by the tuple. The name
// ordering is precomputed per rule set, so repeated calls never re-sort.
func (v *Violations) Rules(id relation.TupleID) []string {
	if !v.ms.hasTuple(id) {
		return nil
	}
	out := make([]string, 0, v.ms.marksOf(id))
	for _, idx := range v.rs.sortedIdx() {
		if v.ms.has(id, idx) {
			out = append(out, v.rs.names[idx])
		}
	}
	return out
}

// Tuples returns the violating tuple ids in ascending order. The sorted
// slice is cached between mutations; treat it as read-only.
func (v *Violations) Tuples() []relation.TupleID {
	if v.tuplesCache == nil {
		v.tuplesCache = v.ms.sortedTuples()
	}
	return v.tuplesCache
}

// Len returns the number of violating tuples.
func (v *Violations) Len() int {
	return v.ms.lenTuples()
}

// Marks returns the total number of (tuple, rule) violation marks.
func (v *Violations) Marks() int {
	return v.ms.marks()
}

// Clone returns a deep copy.
func (v *Violations) Clone() *Violations {
	return &Violations{rs: v.rs.clone(), ms: v.ms.clone()}
}

// RetiredDelta returns the ∆V that retires rules: the removal of every
// mark they hold, built in one pass over the mark bitsets. v is not
// changed; the engines' RemoveRules apply the result once their own
// per-rule state is gone. Rules v never interned contribute nothing.
func (v *Violations) RetiredDelta(rules []string) *Delta {
	d := NewDelta()
	remap := make([]RuleIdx, len(v.rs.names))
	for i := range remap {
		remap[i] = -1
	}
	for _, r := range rules {
		if idx, ok := v.rs.lookup(r); ok {
			remap[idx] = d.Intern(r)
		}
	}
	if len(d.rs.names) > 0 {
		v.ms.each(func(id relation.TupleID, idx RuleIdx) {
			if m := remap[idx]; m >= 0 {
				d.RemoveIdx(id, m)
			}
		})
	}
	return d
}

// Equal reports whether two violation sets hold identical marks. Rule
// sets interned in the same order compare word-for-word; otherwise marks
// are translated name-wise.
func (v *Violations) Equal(o *Violations) bool {
	if v.ms.lenTuples() != o.ms.lenTuples() {
		return false
	}
	remap, identity := v.rs.remapTo(&o.rs)
	if identity && v.ms.spilled() == o.ms.spilled() {
		if !v.ms.spilled() {
			for id, w := range v.ms.small {
				if o.ms.small[id] != w {
					return false
				}
			}
			return true
		}
		for id, ws := range v.ms.big {
			ows := o.ms.big[id]
			if !wordsEqual(ws, ows) {
				return false
			}
		}
		return true
	}
	equal := true
	v.ms.eachTuple(func(id relation.TupleID) {
		if !equal {
			return
		}
		if v.ms.marksOf(id) != o.ms.marksOf(id) {
			equal = false
			return
		}
		v.ms.eachIdx(id, func(idx RuleIdx) {
			m := remap[idx]
			if m < 0 || !o.ms.has(id, m) {
				equal = false
			}
		})
	})
	return equal
}

func wordsEqual(a, b []uint64) bool {
	long, short := a, b
	if len(b) > len(a) {
		long, short = b, a
	}
	for i, w := range short {
		if long[i] != w {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Diff returns the marks present in v but not in o, as a map id → rules.
func (v *Violations) Diff(o *Violations) map[relation.TupleID][]string {
	out := make(map[relation.TupleID][]string)
	remap, _ := v.rs.remapTo(&o.rs)
	v.ms.each(func(id relation.TupleID, idx RuleIdx) {
		if m := remap[idx]; m < 0 || !o.ms.has(id, m) {
			out[id] = append(out[id], v.rs.names[idx])
		}
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
// added marks (∆V+) and removed marks (∆V−). It shares the interned
// bitset representation of Violations.
type Delta struct {
	rs      ruleSpace
	added   markSet
	removed markSet
}

// NewDelta returns an empty change set.
func NewDelta() *Delta { return &Delta{} }

// Intern returns the dense index for rule within this delta.
func (d *Delta) Intern(rule string) RuleIdx {
	idx, fresh := d.rs.intern(rule)
	if fresh && int(idx) == smallWidth {
		d.added.spill()
		d.removed.spill()
	}
	return idx
}

// Add records a new violation mark (∆V+). Mark operations are idempotent
// set writes, so the last operation on a (tuple, rule) pair wins: a
// pending removal of the same mark is replaced, not merely cancelled —
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

// Remove records a removed violation mark (∆V−), replacing a pending add
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
