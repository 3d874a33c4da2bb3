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
	// UseOptimizer builds HEVs with §5's optVer (taking the naive chain
	// plan instead if it happens to ship fewer eqids); otherwise the
	// per-rule chains of §4 are used.
	UseOptimizer bool
	// BeamWidth is optVer's k (0 = default).
	BeamWidth int
	// Plan overrides planning entirely (used by ablations and tests).
	Plan *optimizer.Plan
	// NoIndexes loads the fragments only, skipping HEV/IDX construction
	// and initial violation detection. Such a system serves batVer
	// (BatchDetect) but rejects ApplyBatch. Used when measuring the
	// batch baseline, whose setup the paper does not charge for.
	NoIndexes bool
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
// the (static) plan and the alive set, so they are memoized — the
// per-update hot path walks precomputed slices instead of rebuilding
// maps and re-sorting destination lists for every tuple.
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
	direct    bool
	noIndexes bool
	// unitMode restores the per-update protocol rounds (one eqid
	// delivery per edge per update) for ablation; the default is the
	// batch-grouped driver in coalesce.go.
	unitMode bool

	// normScratch backs the per-batch normalized update slice, reused
	// across ApplyBatch calls so normalization happens exactly once per
	// batch and allocates nothing in steady state.
	normScratch relation.UpdateList

	// Per-update scratch, reused across applyUnit calls (the driver
	// processes unit updates one at a time; every reply slot is
	// overwritten in full by the call that fills it). varIdxSite, checkers
	// and ruleBit are static lookups hoisted out of the per-update path
	// (see indexRules); schedCache memoizes runSchedules keyed by the
	// alive rule set.
	varIdxSite []network.SiteID
	checkers   []network.SiteID
	ruleBit    map[string]int // rule id → bit in a ruleSet
	schedCache map[string]*runSchedule
	fullSched  *runSchedule
	keyScratch []byte
	aliveVar   []*cfd.CFD
	alivePos   []int
	aliveConst []*cfd.CFD
	checkResps []evalConstsResp
	constResps []applyConstResp
	ruleResps  []applyRuleResp
	failedAt   map[string]network.SiteID
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
		st := newSite(network.SiteID(i), fs, plan, sys.rules)
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
	sys.schedCache = make(map[string]*runSchedule)
	sys.failedAt = make(map[string]network.SiteID)

	// Seed: replay the initial database through the batch-grouped
	// insertion logic in direct (unmetered) mode, seedChunk tuples per
	// wave; V(Σ, D) accumulates on the way. With NoIndexes only the
	// fragments are loaded.
	sys.noIndexes = opts.NoIndexes
	if !opts.SkipSeed {
		sys.direct = true
		var seedErr error
		if sys.noIndexes {
			rel.Each(func(t relation.Tuple) bool {
				seedErr = sys.applyFragments(t, OpInsert)
				return seedErr == nil
			})
		} else {
			seedErr = rel.EachInsertChunk(seedChunk, func(ins relation.UpdateList) error {
				_, err := sys.applyCoalesced(ins)
				return err
			})
		}
		sys.direct = false
		if seedErr != nil {
			return nil, seedErr
		}
	}
	sys.cluster.ResetStats()
	return sys, nil
}

// indexRules rebuilds the static per-update lookups over the current
// rule lists, plan and fragment schemas: each variable rule's IDX site,
// the sites owning pattern-constant checks, and every rule's bit in a
// ruleSet.
func (sys *System) indexRules() {
	sys.varIdxSite = make([]network.SiteID, len(sys.varRules))
	for i, r := range sys.varRules {
		sys.varIdxSite[i] = network.SiteID(sys.plan.Bindings[r.ID].IDXSite)
	}
	// Derived from the rule set and the fragment schemas, never from the
	// local site replicas: a hosted deployment does not update those.
	sys.checkers = nil
	for i, fs := range sys.fragSch {
		for ri := range sys.rules {
			if len(constChecksFor(fs, &sys.rules[ri]).cols) > 0 {
				sys.checkers = append(sys.checkers, network.SiteID(i))
				break
			}
		}
	}
	sys.ruleBit = make(map[string]int, len(sys.rules))
	for i, r := range sys.constRules {
		sys.ruleBit[r.ID] = i
	}
	for i, r := range sys.varRules {
		sys.ruleBit[r.ID] = len(sys.constRules) + i
	}
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
	opt, err := optimizer.Optimize(in, opts.BeamWidth)
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

// Stats returns the cluster's traffic meters.
func (sys *System) Stats() network.Stats { return sys.cluster.Stats() }

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
	return network.GatherVia[Req, Resp](sys.cluster, sys.send, from, method, targets, req, network.FanoutOpts{})
}

// ApplyBatch runs incVer (Fig. 5): it normalizes ∆D once, processes it
// through the batch-grouped driver (or the per-update machinery under
// SetUnitMode), maintains V(Σ, D) and returns the accumulated ∆V.
func (sys *System) ApplyBatch(updates relation.UpdateList) (*cfd.Delta, error) {
	if sys.noIndexes {
		return nil, fmt.Errorf("vertical: cannot apply incremental updates: %w", xerr.ErrNoIndexes)
	}
	norm := updates.NormalizeInto(sys.normScratch)
	if len(norm) != len(updates) {
		sys.normScratch = norm // grown scratch: keep the backing array
	}
	if !sys.unitMode {
		return sys.applyCoalesced(norm)
	}
	delta := cfd.NewDelta()
	for _, u := range norm {
		ud, err := sys.applyUnit(u)
		if err != nil {
			return nil, err
		}
		ud.Apply(sys.v)
		delta.Merge(ud)
	}
	if err := sys.barrier(); err != nil {
		return nil, err
	}
	return delta, nil
}

// barrier emits the end-of-batch markers a push-based implementation
// needs so every site knows no more eqids will arrive for this ∆D: one
// empty message per site pair, per batch — O(n²) per ∆D, independent of
// |∆D|.
func (sys *System) barrier() error {
	n := len(sys.sites)
	pairs := make([][2]network.SiteID, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				pairs = append(pairs, [2]network.SiteID{network.SiteID(i), network.SiteID(j)})
			}
		}
	}
	return sys.cluster.Fanout(len(pairs), network.FanoutOpts{}, func(i int) error {
		return sys.send(pairs[i][0], pairs[i][1], "v.barrier", barrierReq{}, nil)
	})
}

// applyUnit processes one insertion or deletion through incVIns/incVDel
// for every rule, sharing eqid resolution and shipment across rules.
func (sys *System) applyUnit(u relation.Update) (*cfd.Delta, error) {
	tid := int64(u.Tuple.ID)
	op := OpInsert
	if u.Kind == relation.Delete {
		op = OpDelete
	}

	// 1. Insertions reach the fragments first (∆Di delivery).
	if op == OpInsert {
		if err := sys.applyFragments(u.Tuple, OpInsert); err != nil {
			return nil, err
		}
	}

	// 2. Each site checks the pattern constants it owns, all sites at
	// once (same-site calls; replies merge in site order).
	checkers := sys.checkers
	failedAt := sys.failedAt
	clear(failedAt)
	if cap(sys.checkResps) < len(checkers) {
		sys.checkResps = make([]evalConstsResp, len(checkers))
	}
	checkResps := sys.checkResps[:len(checkers)]
	err := sys.cluster.Fanout(len(checkers), network.FanoutOpts{}, func(i int) error {
		return sys.send(checkers[i], checkers[i], "v.evalConsts", evalConstsReq{ID: tid}, &checkResps[i])
	})
	if err != nil {
		return nil, err
	}
	for i, id := range checkers {
		for _, rid := range checkResps[i].Failed {
			if prev, ok := failedAt[rid]; !ok || id < prev {
				failedAt[rid] = id
			}
		}
	}

	delta := cfd.NewDelta()

	// 3. Constant CFDs (Fig. 5 lines 4–10): matching sites vote to the
	// coordinator owning B, which classifies the tuple locally. Votes
	// sharing a (checker, coordinator) pair ride one message.
	votes := make(map[[2]network.SiteID][]string)
	for _, r := range sys.constRules {
		if _, dead := failedAt[r.ID]; dead {
			continue // non-matching tuples ship nothing
		}
		coord := sys.constCoord[r.ID]
		for _, s := range sys.constSites[r.ID] {
			if s != coord {
				key := [2]network.SiteID{s, coord}
				votes[key] = append(votes[key], r.ID)
			}
		}
	}
	pairs := make([][2]network.SiteID, 0, len(votes))
	for k := range votes {
		pairs = append(pairs, k)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	err = sys.cluster.Fanout(len(pairs), network.FanoutOpts{}, func(i int) error {
		k := pairs[i]
		return sys.send(k[0], k[1], "v.vote", voteReq{Rules: votes[k], ID: tid}, nil)
	})
	if err != nil {
		return nil, err
	}
	aliveConst := sys.aliveConst[:0]
	for _, r := range sys.constRules {
		if _, dead := failedAt[r.ID]; !dead {
			aliveConst = append(aliveConst, r)
		}
	}
	sys.aliveConst = aliveConst
	if cap(sys.constResps) < len(aliveConst) {
		sys.constResps = make([]applyConstResp, len(aliveConst))
	}
	constResps := sys.constResps[:len(aliveConst)]
	err = sys.cluster.Fanout(len(aliveConst), network.FanoutOpts{}, func(i int) error {
		coord := sys.constCoord[aliveConst[i].ID]
		return sys.send(coord, coord, "v.applyConst", applyConstReq{Rule: aliveConst[i].ID, ID: tid, Op: op}, &constResps[i])
	})
	if err != nil {
		return nil, err
	}
	for i, r := range aliveConst {
		if constResps[i].Violation {
			if op == OpInsert {
				delta.Add(u.Tuple.ID, r.ID)
			} else {
				delta.Remove(u.Tuple.ID, r.ID)
			}
		}
	}

	// 4. Variable CFDs: determine the alive set. A tuple failing a
	// rule's constants ships nothing for it: in the push-based flow no
	// eqids are emitted, and the per-batch barrier (end of ApplyBatch)
	// tells IDX sites the batch is complete.
	alive := sys.aliveVar[:0]
	alivePos := sys.alivePos[:0]
	for i, r := range sys.varRules {
		if _, dead := failedAt[r.ID]; !dead {
			alive = append(alive, r)
			alivePos = append(alivePos, i)
		}
	}
	sys.aliveVar, sys.alivePos = alive, alivePos

	if len(alive) > 0 {
		if err := sys.runPlan(tid, op, alive, alivePos, delta); err != nil {
			return nil, err
		}
	}

	// 7. Deletions leave the fragments last (values were needed above).
	if op == OpDelete {
		if err := sys.applyFragments(u.Tuple, OpDelete); err != nil {
			return nil, err
		}
	}
	return delta, nil
}

// scheduleFor returns the memoized runSchedule of an alive rule set.
// The full set (no constant failures) hits a dedicated slot; other sets
// are keyed by their uvarint-encoded positions within varRules.
func (sys *System) scheduleFor(alive []*cfd.CFD, alivePos []int) *runSchedule {
	if len(alive) == len(sys.varRules) {
		if sys.fullSched == nil {
			sys.fullSched = sys.buildSchedule(alive)
		}
		return sys.fullSched
	}
	key := sys.keyScratch[:0]
	for _, p := range alivePos {
		key = binary.AppendUvarint(key, uint64(p))
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
func (sys *System) buildSchedule(alive []*cfd.CFD) *runSchedule {
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

// runPlan resolves the needed plan nodes in topological order, ships their
// eqids to consumer sites, applies Fig. 4 at each alive rule's IDX site
// and, for deletions, releases reference counts.
func (sys *System) runPlan(tid int64, op OpKind, alive []*cfd.CFD, alivePos []int, delta *cfd.Delta) error {
	sched := sys.scheduleFor(alive, alivePos)

	// 5. Resolve and ship eqids bottom-up. Nodes resolve in topological
	// order (later nodes consume earlier deliveries), but each node's
	// deliveries to its consumer sites go out in parallel.
	for oi, n := range sched.order {
		src := network.SiteID(sys.plan.Node(n).Site)
		var resp resolveResp
		if err := sys.send(src, src, "v.resolve", resolveReq{ID: tid, Node: int(n), Acquire: op == OpInsert}, &resp); err != nil {
			return err
		}
		destSites := sched.dests[oi]
		req := deliverReq{ID: tid, Node: int(n), Eq: resp.Eq}
		if err := sys.cluster.BroadcastVia(sys.send, src, "v.deliver", req, destSites, network.FanoutOpts{}); err != nil {
			return err
		}
		if !sys.direct {
			sys.cluster.AddEqids(len(destSites))
		}
	}

	// 6. Fig. 4 at each alive rule's IDX site, all rules at once (rules
	// sharing an IDX site serialize on that site's lock, as on a real
	// node); ∆V merges in rule order.
	if cap(sys.ruleResps) < len(alive) {
		sys.ruleResps = make([]applyRuleResp, len(alive))
	}
	ruleResps := sys.ruleResps[:len(alive)]
	err := sys.cluster.Fanout(len(alive), network.FanoutOpts{}, func(i int) error {
		idxSite := sys.varIdxSite[alivePos[i]]
		return sys.send(idxSite, idxSite, "v.applyRule", applyRuleReq{Rule: alive[i].ID, ID: tid, Op: op}, &ruleResps[i])
	})
	if err != nil {
		return err
	}
	for i, r := range alive {
		for _, id := range ruleResps[i].Added {
			delta.Add(relation.TupleID(id), r.ID)
		}
		for _, id := range ruleResps[i].Removed {
			delta.Remove(relation.TupleID(id), r.ID)
		}
	}

	// Deletions release reference counts top-down.
	if op == OpDelete {
		for i := len(sched.order) - 1; i >= 0; i-- {
			n := sched.order[i]
			src := network.SiteID(sys.plan.Node(n).Site)
			if err := sys.send(src, src, "v.release", releaseReq{ID: tid, Node: int(n)}, nil); err != nil {
				return err
			}
		}
	}

	// Clear per-update buffers, every involved site at once.
	return sys.cluster.Fanout(len(sched.involved), network.FanoutOpts{}, func(i int) error {
		return sys.send(sched.involved[i], sched.involved[i], "v.endUpdate", endUpdateReq{ID: tid}, nil)
	})
}

// applyFragments delivers a tuple's projection to every fragment in
// parallel (each site ingests its own columns independently). Deletions
// carry no values — the handler removes by id — so no projection is
// materialized for them.
func (sys *System) applyFragments(t relation.Tuple, op OpKind) error {
	return sys.cluster.Fanout(len(sys.sites), network.FanoutOpts{}, func(i int) error {
		req := applyReq{Op: op, ID: int64(t.ID)}
		if op == OpInsert {
			req.Values = t.ProjectTuple(sys.schema, sys.fragSch[i]).Values
		}
		return sys.send(sys.sites[i].id, sys.sites[i].id, "v.apply", req, nil)
	})
}
