package optimizer

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// RuleSpec is the optimizer's view of one normalized CFD: its id, the LHS
// attribute list (author order preserved — the naive chain follows it; the
// attributes are distinct) and the single RHS attribute.
type RuleSpec struct {
	ID  string
	LHS []string
	RHS string
}

// Input describes a planning problem: the vertical partition (with
// replication) and the rules to support.
type Input struct {
	NumSites  int
	AttrSites map[string][]int // attribute → sorted sites holding it
	Rules     []RuleSpec
}

// attrIDs numbers the attributes the rules touch in sorted-name order, so
// ascending ids are sorted names and an attribute set is a bitset.
func attrIDs(rules []RuleSpec) ([]string, map[string]int) {
	ids := make(map[string]int)
	for _, r := range rules {
		for _, a := range r.LHS {
			ids[a] = 0
		}
		ids[r.RHS] = 0
	}
	names := make([]string, 0, len(ids))
	for a := range ids {
		names = append(names, a)
	}
	sort.Strings(names)
	for i, a := range names {
		ids[a] = i
	}
	return names, ids
}

// attrSet is a set of attribute ids.
type attrSet []uint64

func newAttrSet(nAttrs int) attrSet { return make(attrSet, (nAttrs+63)/64) }

func (s attrSet) add(a int) { s[a/64] |= 1 << (a % 64) }

// overlap counts the attributes s and t share.
func (s attrSet) overlap(t attrSet) int {
	n := 0
	for i := range s {
		n += bits.OnesCount64(s[i] & t[i])
	}
	return n
}

func (s attrSet) subsetOf(t attrSet) bool {
	for i := range s {
		if s[i]&^t[i] != 0 {
			return false
		}
	}
	return true
}

// ids appends s's attribute ids in ascending order.
func (s attrSet) ids(dst []int) []int {
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, w*64+bits.TrailingZeros64(word))
		}
	}
	return dst
}

// key is s as a map key: the words' bytes, injective at a fixed width.
func (s attrSet) key() string {
	b := make([]byte, 0, 8*len(s))
	for _, w := range s {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return string(b)
}

// space is optVer's search space (Fig. 7) compiled once per planning
// call. A selection is one byte per candidate (1 keeps it): the composed
// candidates first, in placement order, then the base ones.
type space struct {
	names  []string // attribute id → name
	sites  [][]int  // attribute id → sites holding it
	comp   []composedCand
	base   []baseCand
	baseOf [][]int // attribute id → its base candidates
	rules  []rule  // in ID order
	nSites int
}

// composedCand is a composed-HEV candidate: an attribute set placed at a site.
type composedCand struct {
	set       attrSet
	attrs     []int // set's ids, ascending
	site      int
	protected bool // rule X sets cannot be removed
	// subsets are the strict-subset composed candidates — the inputs the
	// greedy cover may take — in key order (lexicographic over attrs).
	subsets []int
}

// baseCand is a base HEV at one replica; the sole replica of an attribute
// is protected (removing it would make the attribute unresolvable).
type baseCand struct {
	attr, site int
	protected  bool
}

// rule is a RuleSpec on the compiled space.
type rule struct {
	id       string
	x        int // composed candidate of the LHS; -1 for a one-attribute LHS
	lhs, rhs int // lhs: the first LHS attribute
}

func (sp *space) protected(i int) bool {
	if i < len(sp.comp) {
		return sp.comp[i].protected
	}
	return sp.base[i-len(sp.comp)].protected
}

// compile implements optVer's initialization + expansion steps (Fig. 7
// lines 1–7): the X set of every rule, pairwise LHS intersections, up to
// |Xϕ| extra shared-attribute subsets per rule (pairs of a shared
// attribute with another LHS attribute, placed at the partner attribute's
// site so the shared eqid flows there — the HAI-at-S6 move of the paper's
// Example 7), and base HEVs at every replica of every touched attribute.
func compile(in Input) (*space, error) {
	names, ids := attrIDs(in.Rules)
	sp := &space{names: names, sites: make([][]int, len(names)), baseOf: make([][]int, len(names)), nSites: in.NumSites}
	for a, name := range names {
		sp.sites[a] = in.AttrSites[name]
		for _, s := range sp.sites[a] {
			if s < 0 || s >= in.NumSites {
				return nil, fmt.Errorf("optimizer: attribute %q at site %d of %d", name, s, in.NumSites)
			}
		}
	}
	lhs := make([]attrSet, len(in.Rules))
	for i, r := range in.Rules {
		if len(r.LHS) == 0 {
			return nil, fmt.Errorf("optimizer: rule %s has empty LHS", r.ID)
		}
		lhs[i] = newAttrSet(len(names))
		for _, a := range r.LHS {
			lhs[i].add(ids[a])
		}
	}

	// The first addition of a set fixes its placement: rule X sets come
	// first (protected, scored placement), so later ones never upgrade.
	type cset struct {
		set        attrSet
		protected  bool
		forcedSite int // -1 when findLoc decides
	}
	var sets []cset
	seen := make(map[string]bool)
	add := func(s attrSet, protected bool, forcedSite int) {
		if s.overlap(s) < 2 {
			return
		}
		if k := s.key(); !seen[k] {
			seen[k] = true
			sets = append(sets, cset{s, protected, forcedSite})
		}
	}
	for i := range in.Rules {
		add(lhs[i], true, -1)
	}
	for i := range lhs {
		for j := range lhs {
			if i == j || lhs[i].overlap(lhs[j]) < 2 {
				continue
			}
			inter := newAttrSet(len(names))
			for w := range inter {
				inter[w] = lhs[i][w] & lhs[j][w]
			}
			add(inter, false, -1)
		}
	}
	// Shared-attribute pairs within each rule, capped at |Xϕ| per rule:
	// {shared, other} placed at other's primary site, so the shared
	// attribute's eqid is shipped once and composed locally.
	shared := make([]int, len(names))
	for _, s := range lhs {
		for _, a := range s.ids(nil) {
			shared[a]++
		}
	}
	for i, r := range in.Rules {
		added, attrs := 0, lhs[i].ids(nil)
		for _, a := range attrs {
			if shared[a] < 2 || added >= len(r.LHS) {
				continue
			}
			for _, b := range attrs {
				if b == a || added >= len(r.LHS) || len(sp.sites[b]) == 0 {
					continue
				}
				pair := newAttrSet(len(names))
				pair.add(a)
				pair.add(b)
				add(pair, false, sp.sites[b][0])
				added++
			}
		}
	}

	// Placement order: smaller sets first (inputs before consumers, so the
	// placed-subset bonus of findLoc is effective), then key order.
	sp.comp = make([]composedCand, len(sets))
	for i, s := range sets {
		sp.comp[i] = composedCand{set: s.set, attrs: s.set.ids(nil), site: s.forcedSite, protected: s.protected}
	}
	byKey := func(x, y composedCand) int { return slices.Compare(x.attrs, y.attrs) }
	slices.SortFunc(sp.comp, func(x, y composedCand) int {
		if len(x.attrs) != len(y.attrs) {
			return len(x.attrs) - len(y.attrs)
		}
		return byKey(x, y)
	})
	index := make(map[string]int, len(sp.comp))
	for c := range sp.comp {
		index[sp.comp[c].set.key()] = c
	}
	rhsOf := make([][]int, len(sp.comp)) // RHS of every rule whose X set is the candidate
	for i, r := range in.Rules {
		if len(r.LHS) > 1 {
			c := index[lhs[i].key()]
			rhsOf[c] = append(rhsOf[c], ids[r.RHS])
		}
	}
	for c := range sp.comp {
		if sp.comp[c].site < 0 {
			sp.comp[c].site = sp.findLoc(c, rhsOf[c])
		}
	}
	keyOrder := make([]int, len(sp.comp))
	for c := range keyOrder {
		keyOrder[c] = c
	}
	slices.SortFunc(keyOrder, func(x, y int) int { return byKey(sp.comp[x], sp.comp[y]) })
	for c := range sp.comp {
		h := &sp.comp[c]
		for _, d := range keyOrder {
			if len(sp.comp[d].attrs) < len(h.attrs) && sp.comp[d].set.subsetOf(h.set) {
				h.subsets = append(h.subsets, d)
			}
		}
	}

	for a := range names {
		for _, s := range sp.sites[a] {
			sp.baseOf[a] = append(sp.baseOf[a], len(sp.base))
			sp.base = append(sp.base, baseCand{attr: a, site: s, protected: len(sp.sites[a]) == 1})
		}
	}
	order := make([]int, len(in.Rules))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return in.Rules[order[i]].ID < in.Rules[order[j]].ID })
	for _, i := range order {
		r, x := in.Rules[i], -1
		if len(r.LHS) > 1 {
			x = index[lhs[i].key()]
		}
		sp.rules = append(sp.rules, rule{id: r.ID, x: x, lhs: ids[r.LHS[0]], rhs: ids[r.RHS]})
	}
	return sp, nil
}

// findLoc implements the paper's placement rule with shipment-aware
// scoring for composed candidate c: pick the site maximizing (a) the
// number of c's attributes held locally, plus (b) the number of
// already-placed candidates at the site whose attribute sets are subsets
// of c's (free local inputs), plus (c) for every rule whose LHS equals
// c's set, one point if the rule's RHS attribute is held locally
// (co-locating the IDX with B saves the eqid_B shipment). Ties go to the
// lowest site id.
func (sp *space) findLoc(c int, rhs []int) int {
	h := sp.comp[c]
	bestSite, bestScore := 0, -1
	for site := 0; site < sp.nSites; site++ {
		score := 0
		for _, a := range h.attrs {
			if slices.Contains(sp.sites[a], site) {
				score++
			}
		}
		for _, b := range rhs {
			if slices.Contains(sp.sites[b], site) {
				score++
			}
		}
		for _, d := range sp.comp[:c] {
			if d.site == site && d.set.subsetOf(h.set) {
				score++
			}
		}
		if score > bestScore {
			bestSite, bestScore = site, score
		}
	}
	return bestSite
}

// eval runs the greedy cover over one selection of a compiled space. It
// counts the selection's distinct (source node → destination site) edges,
// which is all the search compares, and materializes a Plan only when
// handed one. Node ids follow build order, so a counted run and a
// recording run of one selection number every node alike.
type eval struct {
	sp    *space
	sel   []byte
	node  []int32 // candidate → built node id + 1; 0 while unbuilt
	site  []int   // node id → site
	seen  []bool  // node id·nSites + destination → already shipped
	edges int
	free  []attrSet // uncovered attributes, one per recursion depth
	depth int
	miss  int   // an attribute the selection leaves without a base HEV
	plan  *Plan // recording target, nil when counting
}

func (sp *space) evaluator() *eval {
	n := len(sp.comp) + len(sp.base)
	return &eval{sp: sp, node: make([]int32, n), site: make([]int, 0, n), seen: make([]bool, n*sp.nSites)}
}

// run evaluates sel: its Neqid, or the id of an attribute whose base HEV
// the selection removed but the cover needs (miss ≥ 0). With p non-nil
// the plan is recorded into p.
func (e *eval) run(sel []byte, p *Plan) (neqid, miss int) {
	e.sel, e.plan, e.edges, e.miss, e.site = sel, p, 0, -1, e.site[:0]
	clear(e.node)
	clear(e.seen)
	for _, r := range e.sp.rules {
		var x int32
		var ok bool
		if r.x < 0 {
			// eqid_X comes straight from a base HEV; the IDX lives with it.
			x, ok = e.baseNode(r.lhs, -1)
		} else {
			x, ok = e.composedNode(r.x)
		}
		if !ok {
			return 0, e.miss
		}
		idxSite := e.site[x]
		b, ok := e.baseNode(r.rhs, idxSite)
		if !ok {
			return 0, e.miss
		}
		e.ship(b, idxSite)
		if p != nil {
			p.Bindings[r.id] = RuleBinding{RuleID: r.id, XNode: NodeID(x), BNode: NodeID(b), IDXSite: idxSite}
		}
	}
	return e.edges, -1
}

// materialize records the plan of an executable selection.
func (e *eval) materialize(sel []byte) *Plan {
	p := &Plan{Bindings: make(map[string]RuleBinding, len(e.sp.rules)), edges: make(map[edge]struct{})}
	e.run(sel, p)
	return p
}

// ship counts the edge src → dest once per run; same-site use is free.
func (e *eval) ship(src int32, dest int) {
	k := int(src)*e.sp.nSites + dest
	if e.site[src] == dest || e.seen[k] {
		return
	}
	e.seen[k] = true
	e.edges++
	if e.plan != nil {
		e.plan.edges[edge{src: NodeID(src), dest: dest}] = struct{}{}
	}
}

// newNode numbers candidate i's node in build order; a recording run
// also appends it to the plan.
func (e *eval) newNode(i int, kind NodeKind, attrs []int, site int, inputs []NodeID) int32 {
	id := int32(len(e.site))
	e.site = append(e.site, site)
	e.node[i] = id + 1
	if e.plan != nil {
		n := Node{ID: NodeID(id), Kind: kind, Site: site, Inputs: inputs}
		for _, a := range attrs {
			n.Attrs = append(n.Attrs, e.sp.names[a])
		}
		e.plan.Nodes = append(e.plan.Nodes, n)
	}
	return id
}

// baseNode returns the base HEV serving attribute a to a consumer at
// consumerSite: the consumer's own site when a selected replica lives
// there (zero shipment), otherwise the lowest selected site.
func (e *eval) baseNode(a, consumerSite int) (int32, bool) {
	sp, pick := e.sp, -1
	for _, b := range sp.baseOf[a] {
		if e.sel[len(sp.comp)+b] == 0 {
			continue
		}
		if sp.base[b].site == consumerSite {
			pick = b
			break
		}
		if pick < 0 || sp.base[b].site < sp.base[pick].site {
			pick = b
		}
	}
	if pick < 0 {
		e.miss = a
		return 0, false
	}
	if id := e.node[len(sp.comp)+pick]; id > 0 {
		return id - 1, true
	}
	return e.newNode(len(sp.comp)+pick, Base, []int{a}, sp.base[pick].site, nil), true
}

// composedNode builds composed candidate c (which must be selected) by
// greedy cover: repeatedly take the selected strict-subset candidate
// covering the most uncovered attributes (ties: local to c's site first,
// then key order), as long as it covers at least two; the remaining
// attributes come from base HEVs in id order.
func (e *eval) composedNode(c int) (int32, bool) {
	if id := e.node[c]; id > 0 {
		return id - 1, true
	}
	h := &e.sp.comp[c]
	if e.depth == len(e.free) {
		e.free = append(e.free, make(attrSet, len(h.set)))
	}
	uncovered := e.free[e.depth]
	copy(uncovered, h.set)
	e.depth++
	defer func() { e.depth-- }()
	var inputs []NodeID
	input := func(id int32) {
		e.ship(id, h.site)
		if e.plan != nil {
			inputs = append(inputs, NodeID(id))
		}
	}
	for {
		best, bestCover, bestLocal := -1, 0, false
		for _, d := range h.subsets {
			cover := e.sp.comp[d].set.overlap(uncovered)
			if cover < 2 || e.sel[d] == 0 {
				continue
			}
			local := e.sp.comp[d].site == h.site
			if cover > bestCover || (cover == bestCover && local && !bestLocal) {
				best, bestCover, bestLocal = d, cover, local
			}
		}
		if best < 0 {
			break
		}
		id, ok := e.composedNode(best)
		if !ok {
			return 0, false
		}
		input(id)
		for w, word := range e.sp.comp[best].set {
			uncovered[w] &^= word
		}
	}
	for w, word := range uncovered {
		for ; word != 0; word &= word - 1 {
			id, ok := e.baseNode(w*64+bits.TrailingZeros64(word), h.site)
			if !ok {
				return 0, false
			}
			input(id)
		}
	}
	return e.newNode(c, Composed, h.attrs, h.site, inputs), true
}
