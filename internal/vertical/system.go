package vertical

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/optimizer"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/xerr"
)

// Options configures a vertical detection system.
type Options struct {
	// SkipSeed builds the system without the seeding pass: no fragment
	// loads, no initial V. A resumed driver uses it when the sites
	// already hold their checkpointed state and V is re-derived locally
	// — see AdoptViolations.
	SkipSeed bool
}

// runSchedule is the precomputed shipment plan for one alive rule set:
// which nodes resolve in which order, where each node's eqid ships, and
// which sites end up holding per-tuple state. Schedules depend only on
// the (static) plan and the alive set, so they are memoized — a wave
// walks precomputed slices instead of rebuilding maps and re-sorting
// destination lists for every tuple.
type runSchedule struct {
	order []optimizer.NodeID
	// dests[i] are the sorted cross-site destinations of order[i].
	dests [][]network.SiteID
	// involved are the sites holding eqid buffers for the update, sorted.
	involved []network.SiteID
	// walk lists the positions of order in the stage runner's walk order
	// (System.walksBefore); see resolveStages.
	walk []int32
}

// walksBefore orders plan nodes for the stage walk: by cross-site stage,
// then site, then id. The order is total over the plan, so every
// schedule's walk is a subsequence of any wave's union.
func (sys *System) walksBefore(a, b optimizer.NodeID) bool {
	stages := sys.plan.Stages()
	if stages[a] != stages[b] {
		return stages[a] < stages[b]
	}
	if sa, sb := sys.plan.Nodes[a].Site, sys.plan.Nodes[b].Site; sa != sb {
		return sa < sb
	}
	return a < b
}

// System is a vertically partitioned database with incremental CFD
// violation detection: the paper's incVer machinery (Figs. 4 and 5) plus
// the batVer baseline.
type System struct {
	schema *relation.Schema
	scheme *partition.VerticalScheme
	rules  []cfd.CFD

	plan    *optimizer.Plan
	cluster *network.Cluster
	fragSch []*relation.Schema

	v *cfd.Violations

	// direct makes every call same-site (unmetered, unmarshalled); used
	// while seeding the initial database, whose index build is not part
	// of any measured detection.
	direct bool

	// normScratch backs the per-batch normalized update slice, reused
	// across Apply calls so normalization happens exactly once per
	// batch and allocates nothing in steady state.
	normScratch relation.UpdateList
	// sc is the driver's per-wave working set (coalesce.go), nil between
	// a large wave and the next; barrierPairs is barrier's fixed list of
	// the n(n−1) site pairs.
	sc           *waveScratch
	barrierPairs [][2]network.SiteID

	// Static lookups over the current rule set, rebuilt by setRules.
	// checkers are the sites holding pattern-constant checks. The rest is
	// the rule numbering the same-site messages are coded in (rank by rule
	// id, stamped by gen; see messages.go): byNo holds each numbered
	// rule's facts, constNo and varNo the numbers of the constant and the
	// variable rules in rule order, and varMask the set of variable rules.
	checkers []network.SiteID
	byNo     []ruleFacts
	constNo  []int
	varNo    []int
	varMask  bitset
	gen      uint32

	// schedCache memoizes runSchedules keyed by the alive rule set, with a
	// dedicated slot for the full set.
	schedCache map[string]*runSchedule
	fullSched  *runSchedule
	keyScratch []byte
}

// seedChunk is how many tuples of the initial relation one seeding wave
// carries, so cold start costs O(rows / seedChunk) calls per site. Every
// site pools one eqid buffer per tuple of the largest wave it has seen,
// so the chunk also bounds what seeding leaves resident.
const seedChunk = 128

// ruleFacts is what the driver knows of one numbered rule before any
// tuple.
type ruleFacts struct {
	rule *cfd.CFD
	// site is a constant rule's coordinator (the site owning B) and a
	// variable rule's IDX site.
	site network.SiteID
	// voters are the sites owning a constant rule's pattern-constant
	// attributes, ascending.
	voters []network.SiteID
}

// NewSystem builds the driver over c, whose sites hold plan and rules
// and are empty — hosted on c itself (HostSiteState) or behind its
// remote transport — then seeds them with rel's data and computes the
// initial V(Σ, D). plan is the driver's own copy (see PlanFor); the
// sites graft and drop theirs from the wire. Traffic meters are zero on
// return.
func NewSystem(c *network.Cluster, rel *relation.Relation, scheme *partition.VerticalScheme, plan *optimizer.Plan, rules []cfd.CFD, opts Options) (*System, error) {
	if err := cfd.ValidateAll(rel.Schema, rules); err != nil {
		return nil, err
	}
	if c.NumSites() != scheme.NumSites {
		return nil, fmt.Errorf("vertical: %d-site scheme on a %d-site cluster", scheme.NumSites, c.NumSites())
	}
	sys := &System{
		schema:  rel.Schema,
		scheme:  scheme,
		plan:    plan,
		cluster: c,
		fragSch: make([]*relation.Schema, scheme.NumSites),
		v:       cfd.NewViolations(),
	}
	rules = append([]cfd.CFD(nil), rules...)
	sys.v.InternRules(rules)
	if err := sys.setRules(rules, nil); err != nil {
		return nil, err
	}
	for i := range sys.fragSch {
		fs, err := scheme.FragmentSchema(rel.Schema, i)
		if err != nil {
			return nil, err
		}
		sys.fragSch[i] = fs
	}

	// Seed: replay the initial database through the batch-grouped
	// insertion logic in direct (unmetered) mode, seedChunk tuples per
	// wave; V(Σ, D) accumulates on the way.
	if !opts.SkipSeed {
		sys.direct = true
		seedErr := rel.EachInsertChunk(seedChunk, sys.applyCoalesced)
		sys.direct = false
		if seedErr != nil {
			return nil, seedErr
		}
	}
	sys.cluster.ResetStats()
	return sys, nil
}

// setRules puts all in force in the driver, in one pass over the rule
// numbering: each rule's facts, the constant and variable numbers, the
// variable mask and the checker sites. The scheme must place every
// attribute a constant rule reads; it is checked first, so a rule it
// cannot place changes nothing. sub, when non-nil, holds the new
// variable rules' chains: it is grafted onto the plan after the check
// and before the IDX sites are read. Renumbering moves every alive-set
// key, so the memoized schedules go too. NewSystem, AddRules and
// RemoveRules all come through here; rule validity is the caller's to
// check.
func (sys *System) setRules(all []cfd.CFD, sub *optimizer.Plan) error {
	ids := make([]string, len(all))
	for i := range all {
		ids[i] = all[i].ID
	}
	sort.Strings(ids)
	byNo := make([]ruleFacts, len(all))
	var constNo, varNo []int
	checker := make([]bool, sys.scheme.NumSites)
	site := func(r *cfd.CFD, attr string) (network.SiteID, error) {
		p, ok := sys.scheme.PrimarySiteOf(attr)
		if !ok {
			return 0, fmt.Errorf("vertical: rule %s: attribute %q not assigned to a site: %w", r.ID, attr, xerr.ErrUnknownAttribute)
		}
		return network.SiteID(p), nil
	}
	for i := range all {
		r := &all[i]
		no := sort.SearchStrings(ids, r.ID)
		f := &byNo[no]
		f.rule = r
		attrs, _ := r.ConstantLHS()
		for _, a := range attrs {
			for _, s := range sys.scheme.AttrSites[a] {
				checker[s] = true
			}
		}
		if !r.IsConstant() {
			varNo = append(varNo, no)
			continue
		}
		constNo = append(constNo, no)
		var err error
		if f.site, err = site(r, r.RHS); err != nil {
			return err
		}
		for _, a := range attrs {
			// Every replica site can check the constant locally; the
			// primary is responsible for the match vote.
			p, err := site(r, a)
			if err != nil {
				return err
			}
			if !slices.Contains(f.voters, p) {
				f.voters = append(f.voters, p)
			}
		}
		slices.Sort(f.voters)
	}
	if sub != nil {
		sys.plan.Graft(sub)
	}
	varMask := make(bitset, words(len(all)))
	for _, no := range varNo {
		varMask.set(no)
		byNo[no].site = network.SiteID(sys.plan.Bindings[byNo[no].rule.ID].IDXSite)
	}
	sys.checkers = nil
	for s, ok := range checker {
		if ok {
			sys.checkers = append(sys.checkers, network.SiteID(s))
		}
	}
	sys.rules, sys.byNo, sys.constNo, sys.varNo, sys.varMask = all, byNo, constNo, varNo, varMask
	sys.gen = ruleGen(ids)
	sys.schedCache = make(map[string]*runSchedule)
	sys.fullSched = nil
	return nil
}

// AdoptViolations replaces the maintained violation set — the resume
// path's seam. A restarted driver rebuilds the system with SkipSeed
// (sites already hold their checkpointed state) and installs the V it
// re-derived from its journaled mirror.
func (sys *System) AdoptViolations(v *cfd.Violations) {
	v.InternRules(sys.rules)
	sys.v = v
}

// PlanFor plans the variable rules of rules under scheme: the §4 naive
// chains or, with useOptimizer, the better of those and §5's optVer. It
// is the one place a deployment's plan is made: the driver runs it, and
// every site is built from a copy shipped in its hello, so driver and
// sites agree node for node.
func PlanFor(rules []cfd.CFD, scheme *partition.VerticalScheme, useOptimizer bool) (*optimizer.Plan, error) {
	in := planInput(scheme, rules)
	naive, err := optimizer.NaiveChainPlan(in)
	if err != nil {
		return nil, err
	}
	if !useOptimizer {
		return naive, nil
	}
	opt, err := optimizer.Optimize(in, 0)
	if err != nil {
		return nil, err
	}
	if naive.Neqid() < opt.Neqid() {
		return naive, nil
	}
	return opt, nil
}

// planInput is the optimizer's input for the variable rules of rules.
func planInput(scheme *partition.VerticalScheme, rules []cfd.CFD) optimizer.Input {
	in := optimizer.Input{NumSites: scheme.NumSites, AttrSites: scheme.AttrSites}
	for i := range rules {
		if r := &rules[i]; !r.IsConstant() {
			in.Rules = append(in.Rules, optimizer.RuleSpec{ID: r.ID, LHS: r.LHS, RHS: r.RHS})
		}
	}
	return in
}

// Plan returns the HEV plan in use.
func (sys *System) Plan() *optimizer.Plan { return sys.plan }

// Cluster exposes the message fabric (stats, transport swapping).
func (sys *System) Cluster() *network.Cluster { return sys.cluster }

// Violations returns the maintained violation set V(Σ, D).
func (sys *System) Violations() *cfd.Violations { return sys.v }

// Rules returns the rule set.
func (sys *System) Rules() []cfd.CFD { return sys.rules }

// send routes a possibly-cross-site call on lane l; in direct (seeding)
// mode every call is dispatched locally and unmetered.
func send[Req, Resp any](sys *System, l *network.Lane, from, to network.SiteID, m *network.Method[Req, Resp], req Req) (Resp, error) {
	if sys.direct {
		from = to
	}
	return network.Call(l, from, to, m, req)
}

// gather is network.GatherVia over send, so seed-mode calls stay
// same-site and unmetered.
func gather[Req, Resp any](sys *System, from network.SiteID, m *network.Method[Req, Resp], targets []network.SiteID, req func(network.SiteID) Req) ([]Resp, error) {
	via := func(l *network.Lane, from, to network.SiteID, m *network.Method[Req, Resp], req Req) (Resp, error) {
		return send(sys, l, from, to, m, req)
	}
	return network.GatherVia(sys.cluster, via, from, m, targets, req)
}

// Apply runs incVer (Fig. 5): it normalizes ∆D once, processes it
// through the batch-grouped driver (coalesce.go), maintains V(Σ, D) and
// returns ∆V, the change from V before the batch to V after it. A
// per-update round is a batch of one.
func (sys *System) Apply(updates relation.UpdateList) (*cfd.Delta, error) {
	norm := updates.NormalizeInto(sys.normScratch)
	if len(norm) != len(updates) {
		sys.normScratch = norm // grown scratch: keep the backing array
	}
	before := sys.v.Seal()
	if err := sys.applyCoalesced(norm); err != nil {
		return nil, err
	}
	return sys.v.DeltaSince(&before), nil
}

// barrier emits the end-of-batch markers a push-based implementation
// needs so every site knows no more eqids will arrive for this ∆D: one
// empty message per site pair, per batch — O(n²) per ∆D, independent of
// |∆D|.
func (sys *System) barrier() error {
	pairs := sys.barrierPairs
	if pairs == nil {
		n := sys.scheme.NumSites
		pairs = make([][2]network.SiteID, 0, n*(n-1))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					pairs = append(pairs, [2]network.SiteID{network.SiteID(i), network.SiteID(j)})
				}
			}
		}
		sys.barrierPairs = pairs
	}
	return network.Fanout(sys.cluster, len(pairs), sys, func(sys *System, l *network.Lane, i int) error {
		pair := sys.barrierPairs[i]
		_, err := send(sys, l, pair[0], pair[1], mBarrier, barrierReq{})
		return err
	})
}

// scheduleFor returns the memoized runSchedule of an alive rule set (a
// row over the rule numbering), nil for the empty set. The full set (no
// constant failures) hits a dedicated slot; other sets are keyed by their
// words.
func (sys *System) scheduleFor(alive bitset) *runSchedule {
	if alive.empty() {
		return nil
	}
	if slices.Equal(alive, sys.varMask) {
		if sys.fullSched == nil {
			sys.fullSched = sys.buildSchedule(alive)
		}
		return sys.fullSched
	}
	key := sys.keyScratch[:0]
	for _, w := range alive {
		key = binary.LittleEndian.AppendUint64(key, w)
	}
	sys.keyScratch = key
	if sched, ok := sys.schedCache[string(key)]; ok {
		return sched
	}
	sched := sys.buildSchedule(alive)
	// Bound the memo: distinct alive sets are 2^|varRules| in the worst
	// case, so past the cap new sets are built but not retained.
	const maxSchedCache = 1 << 12
	if len(sys.schedCache) < maxSchedCache {
		sys.schedCache[string(key)] = sched
	}
	return sched
}

// buildSchedule computes the node order, per-node shipment destinations
// and involved-site set for one alive rule set.
func (sys *System) buildSchedule(aliveSet bitset) *runSchedule {
	var alive []*cfd.CFD
	for no := range sys.byNo {
		if aliveSet.has(no) {
			alive = append(alive, sys.byNo[no].rule)
		}
	}
	needed := make(map[optimizer.NodeID]bool)
	var order []optimizer.NodeID
	for _, r := range alive {
		for _, n := range sys.plan.RuleNodes(r.ID) {
			if !needed[n] {
				needed[n] = true
				order = append(order, n)
			}
		}
	}
	slices.Sort(order) // plan ids are topo-ordered

	// Destination sites per node, restricted to what the alive rules use.
	dests := make(map[optimizer.NodeID]map[network.SiteID]bool)
	addDest := func(n optimizer.NodeID, site network.SiteID) {
		if network.SiteID(sys.plan.Node(n).Site) == site {
			return
		}
		m, ok := dests[n]
		if !ok {
			m = make(map[network.SiteID]bool, 2)
			dests[n] = m
		}
		m[site] = true
	}
	for _, n := range order {
		node := sys.plan.Node(n)
		for _, in := range node.Inputs {
			addDest(in, network.SiteID(node.Site))
		}
	}
	for _, r := range alive {
		b := sys.plan.Bindings[r.ID]
		addDest(b.XNode, network.SiteID(b.IDXSite))
		addDest(b.BNode, network.SiteID(b.IDXSite))
	}

	sched := &runSchedule{order: order, dests: make([][]network.SiteID, len(order))}
	involved := make(map[network.SiteID]bool)
	for i, n := range order {
		involved[network.SiteID(sys.plan.Node(n).Site)] = true
		destSites := make([]network.SiteID, 0, len(dests[n]))
		for d := range dests[n] {
			destSites = append(destSites, d)
			involved[d] = true
		}
		slices.Sort(destSites)
		sched.dests[i] = destSites
	}
	for s := range involved {
		sched.involved = append(sched.involved, s)
	}
	slices.Sort(sched.involved)

	sched.walk = make([]int32, len(order))
	for i := range sched.walk {
		sched.walk[i] = int32(i)
	}
	sort.Slice(sched.walk, func(i, j int) bool { return sys.walksBefore(order[sched.walk[i]], order[sched.walk[j]]) })
	return sched
}
