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
)

// Options configures a vertical detection system.
type Options struct {
	// UseOptimizer builds HEVs with §5's optVer (taking the naive chain
	// plan instead if it happens to ship fewer eqids); otherwise the
	// per-rule chains of §4 are used.
	UseOptimizer bool
	// Plan overrides planning entirely (used by ablations and tests).
	Plan *optimizer.Plan
	// Transport, when non-nil, is a state-hosting transport (TCP sited
	// deployment): it is installed before seeding, so the initial
	// database is loaded into the remote sites and the local site
	// replicas stay empty. Callers must also set Plan (the same plan the
	// daemons were bootstrapped with; see PlanFor).
	Transport network.Transport
	// SkipSeed builds the system without the seeding pass: no fragment
	// loads, no initial V. A resumed driver uses it when the sites
	// already hold their checkpointed state and V is re-derived locally
	// — see AdoptViolations. Callers must set Plan (the plan the sites
	// were bootstrapped with).
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

	varRules   []*cfd.CFD
	constRules []*cfd.CFD

	plan    *optimizer.Plan
	cluster *network.Cluster
	sites   []*site
	fragSch []*relation.Schema

	// constSites lists, per constant rule, the sites owning at least one
	// pattern-constant attribute; constCoord is the rule's coordinator
	// (the site owning B).
	constSites map[string][]network.SiteID
	constCoord map[string]network.SiteID

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

	// Static lookups over the current rule set, rebuilt by indexRules.
	// checkers are the sites holding pattern-constant checks. The rest is
	// the rule numbering the same-site messages are coded in (rank by rule
	// id, stamped by gen; see messages.go): ruleByNo inverts it, constNo
	// and varNo give the numbers of constRules[i] and varRules[i], varMask
	// is the set of variable rules and idxSite[no] a variable rule's IDX
	// site.
	checkers []network.SiteID
	ruleByNo []*cfd.CFD
	constNo  []int
	varNo    []int
	varMask  bitset
	idxSite  []network.SiteID
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

// NewSystem partitions rel under scheme, plans and builds the HEV/IDX
// indices for rules, seeds them with rel's data and computes the initial
// V(Σ, D). Traffic meters are zero on return.
func NewSystem(rel *relation.Relation, scheme *partition.VerticalScheme, rules []cfd.CFD, opts Options) (*System, error) {
	if err := cfd.ValidateAll(rel.Schema, rules); err != nil {
		return nil, err
	}
	sys := &System{
		schema:     rel.Schema,
		scheme:     scheme,
		rules:      append([]cfd.CFD(nil), rules...),
		constSites: make(map[string][]network.SiteID),
		constCoord: make(map[string]network.SiteID),
		v:          cfd.NewViolations(),
	}
	sys.v.InternRules(sys.rules)
	for i := range sys.rules {
		r := &sys.rules[i]
		if r.IsConstant() {
			sys.constRules = append(sys.constRules, r)
		} else {
			sys.varRules = append(sys.varRules, r)
		}
	}

	plan, err := buildPlan(sys.varRules, scheme, opts)
	if err != nil {
		return nil, err
	}
	sys.plan = plan

	sys.cluster = network.NewCluster(scheme.NumSites)
	sys.fragSch = make([]*relation.Schema, scheme.NumSites)
	for i := 0; i < scheme.NumSites; i++ {
		fs, err := scheme.FragmentSchema(rel.Schema, i)
		if err != nil {
			return nil, err
		}
		sys.fragSch[i] = fs
		st, err := newSite(network.SiteID(i), fs, plan, sys.rules)
		if err != nil {
			return nil, err
		}
		sys.sites = append(sys.sites, st)
		st.register(sys.cluster)
	}
	if opts.Transport != nil {
		sys.cluster.UseRemoteTransport(opts.Transport)
	}

	for _, r := range sys.constRules {
		coord, ok := scheme.PrimarySiteOf(r.RHS)
		if !ok {
			return nil, fmt.Errorf("vertical: rule %s: RHS %q not assigned to a site", r.ID, r.RHS)
		}
		sys.constCoord[r.ID] = network.SiteID(coord)
		attrs, _ := r.ConstantLHS()
		seen := make(map[network.SiteID]bool)
		for _, a := range attrs {
			// Every replica site can check the constant locally; the
			// primary is responsible for the match vote.
			p, ok := scheme.PrimarySiteOf(a)
			if !ok {
				return nil, fmt.Errorf("vertical: rule %s: attribute %q not assigned to a site", r.ID, a)
			}
			if !seen[network.SiteID(p)] {
				seen[network.SiteID(p)] = true
				sys.constSites[r.ID] = append(sys.constSites[r.ID], network.SiteID(p))
			}
		}
		sort.Slice(sys.constSites[r.ID], func(a, b int) bool {
			return sys.constSites[r.ID][a] < sys.constSites[r.ID][b]
		})
	}

	sys.indexRules()

	// Seed: replay the initial database through the batch-grouped
	// insertion logic in direct (unmetered) mode, seedChunk tuples per
	// wave; V(Σ, D) accumulates on the way.
	if !opts.SkipSeed {
		sys.direct = true
		seedErr := rel.EachInsertChunk(seedChunk, func(ins relation.UpdateList) error {
			_, err := sys.applyCoalesced(ins)
			return err
		})
		sys.direct = false
		if seedErr != nil {
			return nil, seedErr
		}
	}
	sys.cluster.ResetStats()
	return sys, nil
}

// indexRules rebuilds the static lookups over the current rule lists,
// fragment schemas and plan: the sites owning pattern-constant checks and
// the rule numbering. Renumbering moves every alive-set key, so the
// memoized schedules go too.
func (sys *System) indexRules() {
	// Derived from the rule set and the fragment schemas, never from the
	// local site replicas: a hosted deployment does not update those.
	sys.checkers = nil
	for i, fs := range sys.fragSch {
		for ri := range sys.rules {
			if cols, _ := constChecksFor(fs, &sys.rules[ri]); len(cols) > 0 {
				sys.checkers = append(sys.checkers, network.SiteID(i))
				break
			}
		}
	}

	ids := make([]string, len(sys.rules))
	for i := range sys.rules {
		ids[i] = sys.rules[i].ID
	}
	sort.Strings(ids)
	sys.gen = ruleGen(ids)
	sys.ruleByNo = make([]*cfd.CFD, len(ids))
	number := func(rules []*cfd.CFD) []int {
		nos := make([]int, len(rules))
		for i, r := range rules {
			nos[i] = sort.SearchStrings(ids, r.ID)
			sys.ruleByNo[nos[i]] = r
		}
		return nos
	}
	sys.constNo, sys.varNo = number(sys.constRules), number(sys.varRules)
	sys.varMask = make(bitset, words(len(ids)))
	sys.idxSite = make([]network.SiteID, len(ids))
	for i, r := range sys.varRules {
		sys.varMask.set(sys.varNo[i])
		sys.idxSite[sys.varNo[i]] = network.SiteID(sys.plan.Bindings[r.ID].IDXSite)
	}
	sys.schedCache = make(map[string]*runSchedule)
	sys.fullSched = nil
}

// AdoptViolations replaces the maintained violation set — the resume
// path's seam. A restarted driver rebuilds the system with SkipSeed
// (sites already hold their checkpointed state) and installs the V it
// re-derived from its journaled mirror.
func (sys *System) AdoptViolations(v *cfd.Violations) {
	v.InternRules(sys.rules)
	sys.v = v
}

func buildPlan(varRules []*cfd.CFD, scheme *partition.VerticalScheme, opts Options) (*optimizer.Plan, error) {
	if opts.Plan != nil {
		return opts.Plan, nil
	}
	in := optimizer.Input{
		NumSites:  scheme.NumSites,
		AttrSites: scheme.AttrSites,
	}
	for _, r := range varRules {
		in.Rules = append(in.Rules, optimizer.RuleSpec{ID: r.ID, LHS: r.LHS, RHS: r.RHS})
	}
	naive, err := optimizer.NaiveChainPlan(in)
	if err != nil {
		return nil, err
	}
	if !opts.UseOptimizer {
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

// Plan returns the HEV plan in use.
func (sys *System) Plan() *optimizer.Plan { return sys.plan }

// Cluster exposes the message fabric (stats, transport swapping).
func (sys *System) Cluster() *network.Cluster { return sys.cluster }

// Violations returns the maintained violation set V(Σ, D).
func (sys *System) Violations() *cfd.Violations { return sys.v }

// Rules returns the rule set.
func (sys *System) Rules() []cfd.CFD { return sys.rules }

// send routes a possibly-cross-site call; in direct (seeding) mode every
// call is dispatched locally and unmetered.
func (sys *System) send(from, to network.SiteID, method string, args, reply any) error {
	if sys.direct {
		from = to
	}
	return sys.cluster.Call(from, to, method, args, reply)
}

// gather is network.GatherVia over sys.send, so seed-mode calls stay
// same-site and unmetered.
func gather[Req, Resp any](sys *System, from network.SiteID, method string, targets []network.SiteID, req func(network.SiteID) Req) ([]Resp, error) {
	return network.GatherVia[Req, Resp](sys.cluster, sys.send, from, method, targets, req)
}

// Apply runs incVer (Fig. 5): it normalizes ∆D once, processes it
// through the batch-grouped driver (coalesce.go), maintains V(Σ, D) and
// returns the accumulated ∆V. A per-update round is a batch of one.
func (sys *System) Apply(updates relation.UpdateList) (*cfd.Delta, error) {
	norm := updates.NormalizeInto(sys.normScratch)
	if len(norm) != len(updates) {
		sys.normScratch = norm // grown scratch: keep the backing array
	}
	return sys.applyCoalesced(norm)
}

// barrier emits the end-of-batch markers a push-based implementation
// needs so every site knows no more eqids will arrive for this ∆D: one
// empty message per site pair, per batch — O(n²) per ∆D, independent of
// |∆D|.
func (sys *System) barrier() error {
	pairs := sys.barrierPairs
	if pairs == nil {
		n := len(sys.sites)
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
	return sys.cluster.Fanout(len(pairs), func(i int) error {
		return sys.send(pairs[i][0], pairs[i][1], "v.barrier", barrierReq{}, nil)
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
	for no, r := range sys.ruleByNo {
		if aliveSet.has(no) {
			alive = append(alive, r)
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
