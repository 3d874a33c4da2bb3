package vertical

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/network"
	"repro/internal/optimizer"
	"repro/internal/relation"
)

// This file is the incVer driver — the one protocol Apply, seeding
// and rule seeding all run; a per-update round is a wave of one. A
// normalized batch is split into waves — maximal runs of updates with
// pairwise-distinct tuple ids, so the phases below can safely reorder work
// across updates — and each wave runs the phases of Figs. 4 and 5 once,
// over every update at a time:
//
//	1. fragment delivery (same-site, batched per site);
//	2. pattern-constant checks (same-site, batched per checker site);
//	3. constant-CFD votes, coalesced per (checker, coordinator) pair, and
//	   the coordinator-side classifications batched per site;
//	4. plan-node resolution by cross-site stage (resolveStages): per
//	   stage one resolve call per site, then one eqid delivery per
//	   (source, destination) edge — instead of one per edge per tuple;
//	5. Fig. 4 case analyses batched per IDX site, marked in V in the
//	   order the site ran them;
//	6. reference-count releases, buffer clears and fragment removals,
//	   batched per site.
//
// The shipped eqid count does not depend on how ∆D is cut into batches
// (the same eqids travel the same edges); what a larger wave collapses is
// the message count and the per-message framing. After every batch V
// equals a fresh centralized Detect on the current D — the differential
// oracles and the parity tests pin this.

// uState tracks one update through a wave's node resolution.
type uState struct {
	sched *runSchedule // of the update's alive rules; nil when none is
	pos   int          // cursor into sched.walk
}

// wave is one wave's updates with the columns its same-site calls are
// made of (messages.go). The calls of a phase share them: a request
// handed to several sites at once is only ever read.
type wave struct {
	states []uState
	ids    []int64 // the updates' tuple ids, in wave order
	ins    bitset  // position i is an insertion
	// failed holds one rule-set row per position: the rules whose pattern
	// constants the tuple fails.
	failed []uint64

	// walk and members are resolveStages' record of the plan nodes the
	// wave resolved, in walk order, and for each the positions that
	// resolved it (one row over positions per node).
	walk    []optimizer.NodeID
	members []uint64
}

// waveScratch is the driver's per-wave working set — the wave itself and
// the tables its phases build their calls in and gather their replies
// into — kept on the System so a stream of small waves reuses them
// instead of allocating each per wave. Reuse is safe because no site
// keeps a request's slices: in process a handler receives the driver's
// own slices and only reads them during the call. The one thing a
// handler stores, batchFrag's projected Values, is projected afresh per
// update and never comes from here. A phase's fan-out round reads what it
// sends from here too: its body is a static func over the System, not a
// closure. end drops every reference a wave left (replies, values,
// schedules) and keeps only capacity; a wave of more than scratchKeepWave
// updates (a seeding wave) releases the scratch instead, so its
// high-water tables do not stay resident.
type waveScratch struct {
	w    wave
	seen map[relation.TupleID]bool // applyCoalesced's wave cut
	// arena backs the wave's bitset tables (rows). A table taken before
	// the arena grows keeps the old array, so all stay valid for the wave.
	arena []uint64
	sites []network.SiteID // sitesWhere's list; one phase holds it at a time
	// targets are the sites of the fan-out round running, by index.
	targets []network.SiteID

	updates  relation.UpdateList // deliverFragments' updates of kind op
	op       OpKind
	frag     [][]applyReq      // by site: deliverFragments' items
	evalReq  batchEvalReq      // sent to every checker
	evals    []batchEvalResp   // by checker
	votes    [][]batchVoteItem // by checker*n + coordinator
	voteKeys []int             // the non-empty votes, ascending
	consts   []batchConstReq   // by site
	verdicts []batchConstResp  // by coordinator

	nodeSeen     []bool // by plan node: waveNodes' union
	nodes        []int
	refs         []shipRef
	resolveReqs  []batchResolveReq    // by site
	resolveResps []batchResolveResp   // by site
	pend         [][]batchDeliverItem // by dest*n + src
	srcs, dsts   []network.SiteID
	hosts        []bool          // by site: hosts an alive rule's IDX
	ruleReq      batchRuleReq    // sent to every IDX site
	ruleResps    []batchRuleResp // by IDX site
	releases     []batchReleaseReq
	endIDs       [][]int64 // by site
}

const scratchKeepWave = 64

func newWaveScratch(sites int) *waveScratch {
	return &waveScratch{
		seen:         make(map[relation.TupleID]bool),
		frag:         make([][]applyReq, sites),
		votes:        make([][]batchVoteItem, sites*sites),
		consts:       make([]batchConstReq, sites),
		resolveReqs:  make([]batchResolveReq, sites),
		resolveResps: make([]batchResolveResp, sites),
		pend:         make([][]batchDeliverItem, sites*sites),
		hosts:        make([]bool, sites),
		releases:     make([]batchReleaseReq, sites),
		endIDs:       make([][]int64, sites),
	}
}

// sized returns s resized to n zeroed elements, keeping its array when
// it is large enough.
func sized[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// rows takes n zeroed words off the arena.
func (sc *waveScratch) rows(n int) []uint64 {
	at := len(sc.arena)
	if at+n > cap(sc.arena) {
		sc.arena, at = make([]uint64, 0, max(2*cap(sc.arena), n)), 0
	}
	sc.arena = sc.arena[:at+n]
	out := sc.arena[at : at+n : at+n]
	clear(out)
	return out
}

// end empties the scratch after a wave, keeping its capacity.
func (sc *waveScratch) end() {
	clear(sc.w.states)
	sc.w = wave{states: sc.w.states[:0], ids: sc.w.ids[:0], walk: sc.w.walk[:0]}
	clear(sc.seen)
	sc.arena = sc.arena[:0]
	sc.targets, sc.updates = nil, nil
	sc.evalReq, sc.ruleReq = batchEvalReq{}, batchRuleReq{}
	clear(sc.evals)
	clear(sc.verdicts)
	clear(sc.ruleResps)
	for i := range sc.frag {
		clear(sc.frag[i])
		sc.frag[i] = sc.frag[i][:0]
		sc.consts[i] = batchConstReq{}
		sc.resolveReqs[i], sc.resolveResps[i] = batchResolveReq{}, batchResolveResp{}
		r := &sc.releases[i]
		*r = batchReleaseReq{Nodes: r.Nodes[:0], Members: r.Members[:0]}
		sc.endIDs[i] = sc.endIDs[i][:0]
	}
	for i := range sc.votes {
		sc.votes[i] = sc.votes[i][:0]
		sc.pend[i] = sc.pend[i][:0]
	}
	clear(sc.refs)
	sc.refs = sc.refs[:0]
}

// scratch returns the System's wave scratch, creating it on first use.
func (sys *System) scratch() *waveScratch {
	if sys.sc == nil {
		sys.sc = newWaveScratch(sys.scheme.NumSites)
	}
	return sys.sc
}

// doneWave ends a wave of size updates: the scratch is emptied for the
// next one, or released past scratchKeepWave.
func (sys *System) doneWave(size int) {
	if size > scratchKeepWave {
		sys.sc = nil
	} else if sys.sc != nil {
		sys.sc.end()
	}
}

// newWave returns the wave over n tuple ids (w.ids, for the caller to
// fill), all deletions so far.
func (sys *System) newWave(n int) *wave {
	sc := sys.scratch()
	w := &sc.w
	w.states = slices.Grow(w.states[:0], n)[:n]
	clear(w.states)
	w.ids = slices.Grow(w.ids[:0], n)[:n]
	w.ins = sc.rows(words(n))
	w.failed = sc.rows(n * words(len(sys.rules)))
	return w
}

// unfailed returns a rule-set table: per position, the rules of mask whose
// pattern constants the tuple did not fail.
func (sys *System) unfailed(w *wave, mask bitset) []uint64 {
	rows := sys.sc.rows(len(w.failed))
	for i, word := range w.failed {
		rows[i] = ^word & mask[i%len(mask)]
	}
	return rows
}

// ruleRow returns position i's row of a rule-set table.
func (sys *System) ruleRow(rows []uint64, i int) bitset {
	w := words(len(sys.rules))
	return rows[i*w : (i+1)*w]
}

// applyCoalesced runs one normalized batch wave by wave, maintaining V.
func (sys *System) applyCoalesced(norm relation.UpdateList) error {
	for start := 0; start < len(norm); {
		seen := sys.scratch().seen
		end := start + 1
		seen[norm[start].Tuple.ID] = true
		for end < len(norm) && !seen[norm[end].Tuple.ID] {
			seen[norm[end].Tuple.ID] = true
			end++
		}
		err := sys.applyWave(norm[start:end])
		sys.doneWave(end - start)
		if err != nil {
			return err
		}
		start = end
	}
	return sys.barrier()
}

// applyWave runs one wave (distinct tuple ids) through the grouped
// phases, marking its changes in V in update order.
func (sys *System) applyWave(updates relation.UpdateList) error {
	w := sys.newWave(len(updates))
	for i, u := range updates {
		w.ids[i] = int64(u.Tuple.ID)
		if u.Kind != relation.Delete {
			w.ins.set(i)
		}
	}

	// 1. Insertions reach every fragment first (∆Di delivery).
	if err := sys.deliverFragments(updates, OpInsert); err != nil {
		return err
	}

	// 2. Pattern constants, every checker site over the whole wave.
	if err := sys.evalConstants(w, sys.checkers); err != nil {
		return err
	}

	// 3. Constant CFDs.
	if err := sys.constPhase(w, sys.constNo); err != nil {
		return err
	}

	// 4. Variable CFDs: the alive rules' plan nodes, stage by stage, then
	// 5. Fig. 4 at each alive rule's IDX site.
	if err := sys.varPhase(w, sys.varMask); err != nil {
		return err
	}

	// 6. Deletions release reference counts top-down, batched per site.
	if err := sys.releaseWave(w); err != nil {
		return err
	}
	if err := sys.endWave(w); err != nil {
		return err
	}

	// 7. Deletions leave the fragments last (values were needed above).
	return sys.deliverFragments(updates, OpDelete)
}

// deliverFragments hands every site its share of the wave's updates of
// one kind, in wave order: each insertion's projection onto the site's
// fragment schema, or the bare ids of the deletions. One batched
// same-site call per site; none when the wave has no such update.
func (sys *System) deliverFragments(wave relation.UpdateList, op OpKind) error {
	sc := sys.sc
	sc.updates, sc.op = wave, op
	return network.Fanout(sys.cluster, len(sc.frag), sys, func(sys *System, l *network.Lane, i int) error {
		sc := sys.sc
		items := sc.frag[i][:0]
		for _, u := range sc.updates {
			if (u.Kind == relation.Delete) != (sc.op == OpDelete) {
				continue
			}
			item := applyReq{Op: sc.op, ID: int64(u.Tuple.ID)}
			if sc.op == OpInsert {
				// The site keeps these values: a fresh projection each.
				item.Values = u.Tuple.ProjectTuple(sys.schema, sys.fragSch[i]).Values
			}
			items = append(items, item)
		}
		sc.frag[i] = items
		if len(items) == 0 {
			return nil
		}
		_, err := send(sys, l, network.SiteID(i), network.SiteID(i), mBatchFrag, batchFragReq{Items: items})
		return err
	})
}

// sitesWhere lists, ascending, the sites has holds for, in the scratch's
// site list (valid until the next call).
func (sys *System) sitesWhere(has func(site int) bool) []network.SiteID {
	out := sys.sc.sites[:0]
	for s := 0; s < sys.scheme.NumSites; s++ {
		if has(s) {
			out = append(out, network.SiteID(s))
		}
	}
	sys.sc.sites = out
	return out
}

// malformed is the error for a same-site reply that does not fit the
// request it answers: driver and site have diverged.
func malformed(method string, site network.SiteID) error {
	return fmt.Errorf("vertical: %s: malformed batch response from site %d", method, site)
}

// evalConstants checks the wave's pattern constants at every listed
// checker site and ORs the failures into w.failed.
func (sys *System) evalConstants(w *wave, checkers []network.SiteID) error {
	sc := sys.sc
	sc.evalReq = batchEvalReq{Gen: sys.gen, IDs: w.ids}
	sc.targets, sc.evals = checkers, sized(sc.evals, len(checkers))
	err := network.Fanout(sys.cluster, len(checkers), sys, func(sys *System, l *network.Lane, i int) error {
		sc := sys.sc
		c := sc.targets[i]
		var err error
		sc.evals[i], err = send(sys, l, c, c, mBatchEval, sc.evalReq)
		return err
	})
	if err != nil {
		return err
	}
	for ci, c := range checkers {
		failed := sc.evals[ci].Failed
		if !validRows(failed, len(w.ids), len(sys.rules)) {
			return malformed("v.batchEval", c)
		}
		for i, word := range failed {
			w.failed[i] |= word
		}
	}
	return nil
}

// constPhase runs the wave through the constant rules numbered nos:
// votes coalesced per (checker, coordinator) pair across the wave, then
// the coordinator classifications batched per site; the marks land in
// V per coordinator in (update, rule number) order.
func (sys *System) constPhase(w *wave, nos []int) error {
	if len(nos) == 0 {
		return nil
	}
	sc, n := sys.sc, sys.scheme.NumSites
	votes := sc.votes // by checker*n + coordinator; a pair's items in wave order
	for i := range w.states {
		failed := sys.ruleRow(w.failed, i)
		for _, no := range nos {
			if failed.has(no) {
				continue // non-matching tuples ship nothing
			}
			f := &sys.byNo[no]
			for _, s := range f.voters {
				if s == f.site {
					continue
				}
				k := int(s)*n + int(f.site)
				items := votes[k]
				if len(items) == 0 || items[len(items)-1].ID != w.ids[i] {
					// Open the update's item, reusing a dropped one's Rules.
					items = slices.Grow(items, 1)[:len(items)+1]
					items[len(items)-1].ID = w.ids[i]
					items[len(items)-1].Rules = items[len(items)-1].Rules[:0]
				}
				items[len(items)-1].Rules = append(items[len(items)-1].Rules, f.rule.ID)
				votes[k] = items
			}
		}
	}
	keys := sc.voteKeys[:0]
	for k, items := range votes {
		if len(items) > 0 {
			keys = append(keys, k)
		}
	}
	sc.voteKeys = keys
	err := network.Fanout(sys.cluster, len(keys), sys, func(sys *System, l *network.Lane, i int) error {
		sc, n := sys.sc, sys.scheme.NumSites
		k := sc.voteKeys[i]
		_, err := send(sys, l, network.SiteID(k/n), network.SiteID(k%n), mBatchVote, batchVoteReq{Items: sc.votes[k]})
		return err
	})
	if err != nil {
		return err
	}

	// Each coordinator classifies, per tuple, the rules it coordinates
	// that the tuple did not fail: the complement of the failed row under
	// the coordinator's mask.
	rw := words(len(sys.rules))
	masks := sc.rows(n * rw) // by coordinator
	for _, no := range nos {
		bitset(masks[int(sys.byNo[no].site)*rw:]).set(no)
	}
	reqs := sc.consts // by site
	for s := 0; s < n; s++ {
		mask := bitset(masks[s*rw : (s+1)*rw])
		if mask.empty() {
			continue
		}
		if asked := sys.unfailed(w, mask); !bitset(asked).empty() {
			reqs[s] = batchConstReq{Gen: sys.gen, IDs: w.ids, Rules: asked}
		}
	}
	coords := sys.sitesWhere(func(s int) bool { return reqs[s].Rules != nil })
	sc.targets, sc.verdicts = coords, sized(sc.verdicts, len(coords))
	err = network.Fanout(sys.cluster, len(coords), sys, func(sys *System, l *network.Lane, i int) error {
		sc := sys.sc
		s := sc.targets[i]
		var err error
		sc.verdicts[i], err = send(sys, l, s, s, mBatchConst, sc.consts[s])
		return err
	})
	if err != nil {
		return err
	}
	for si, s := range coords {
		violations, asked := sc.verdicts[si].Violations, reqs[s].Rules
		if len(violations) != len(asked) {
			return malformed("v.batchConst", s)
		}
		for k, word := range violations {
			if word&^asked[k] != 0 {
				return malformed("v.batchConst", s)
			}
			i := k / rw
			for ; word != 0; word &= word - 1 {
				rule := sys.byNo[k%rw<<6+bits.TrailingZeros64(word)].rule.ID
				if w.ins.has(i) {
					sys.v.Add(relation.TupleID(w.ids[i]), rule)
				} else {
					sys.v.Remove(relation.TupleID(w.ids[i]), rule)
				}
			}
		}
	}
	return nil
}

// varPhase runs the wave through the variable rules of mask: per update
// the alive set (mask minus the failed rules) and its memoized schedule,
// the scheduled plan nodes stage by stage, then Fig. 4 at each alive
// rule's IDX site.
func (sys *System) varPhase(w *wave, mask bitset) error {
	alive := sys.unfailed(w, mask)
	for i := range w.states {
		w.states[i].sched = sys.scheduleFor(sys.ruleRow(alive, i))
	}
	if err := sys.resolveStages(w); err != nil {
		return err
	}
	return sys.idxPhase(w, alive)
}

// shipRef says where one resolved eqid goes: the position it belongs to
// and the sites its node's eqid ships to for that update.
type shipRef struct {
	pos   int
	dests []network.SiteID
}

// resolveStages resolves every scheduled plan node of the wave's updates
// and ships the eqids, one cross-site stage (optimizer.Plan.Stages) at a
// time. A stage is two fan-out rounds: one v.batchResolve per involved
// site, carrying that site's nodes of the stage in ascending id, then one
// v.batchDeliver per (source, destination) edge with eqids to ship, one
// worker per destination sending in ascending source order — so every
// site sees a deterministic call stream whatever the worker count. A
// node's members resolve in wave order, so each HEV allocates the same
// eqids as when nodes resolved one call at a time.
func (sys *System) resolveStages(w *wave) error {
	w.walk = sys.waveNodes(w.walk[:0], w.states)
	walk, stages := w.walk, sys.plan.Stages()
	siteOf := func(node optimizer.NodeID) network.SiteID { return network.SiteID(sys.plan.Nodes[node].Site) }

	// One backing array each for the wave's node lists, member rows and
	// shipping references: in walk order a site's nodes of one stage are
	// adjacent, and so are a node's members.
	total := 0
	for i := range w.states {
		if sched := w.states[i].sched; sched != nil {
			total += len(sched.walk)
		}
	}
	sc, iw := sys.sc, words(len(w.ids))
	nodes := slices.Grow(sc.nodes[:0], len(walk))[:len(walk)]
	sc.nodes = nodes
	w.members = sc.rows(len(walk) * iw)
	refs := slices.Grow(sc.refs[:0], total) // one per (node, member), in reply order

	n := sys.scheme.NumSites
	reqs, resps := sc.resolveReqs, sc.resolveResps // by site
	pend := sc.pend                                // by dest*n + src
	defer func() { sc.refs = refs }()
	for lo := 0; lo < len(walk); {
		stage, stageRefs := stages[walk[lo]], len(refs)
		srcs := sc.srcs[:0]
		for lo < len(walk) && stages[walk[lo]] == stage {
			site, first := siteOf(walk[lo]), lo
			for ; lo < len(walk) && stages[walk[lo]] == stage && siteOf(walk[lo]) == site; lo++ {
				node := walk[lo]
				nodes[lo] = int(node)
				row := bitset(w.members[lo*iw : (lo+1)*iw])
				for i := range w.states {
					us := &w.states[i]
					if us.sched == nil || us.pos == len(us.sched.walk) {
						continue
					}
					at := us.sched.walk[us.pos]
					if us.sched.order[at] != node {
						continue
					}
					row.set(i)
					refs = append(refs, shipRef{pos: i, dests: us.sched.dests[at]})
					us.pos++
				}
			}
			srcs = append(srcs, site)
			reqs[site] = batchResolveReq{IDs: w.ids, Ins: w.ins, Nodes: nodes[first:lo], Members: w.members[first*iw : lo*iw]}
		}
		sc.srcs = srcs

		err := network.Fanout(sys.cluster, len(sc.srcs), sys, func(sys *System, l *network.Lane, i int) error {
			sc := sys.sc
			s := sc.srcs[i]
			var err error
			sc.resolveResps[s], err = send(sys, l, s, s, mBatchResolve, sc.resolveReqs[s])
			return err
		})
		if err != nil {
			return err
		}

		// The stage's refs lie in refs[stageRefs:] site by site, node by
		// node — the order each site's reply lists its eqids in.
		shipped, k := 0, stageRefs
		for _, src := range srcs {
			eqs := resps[src].Eqs
			for ni, node := range reqs[src].Nodes {
				members := 0
				for _, word := range reqs[src].Members[ni*iw : (ni+1)*iw] {
					members += bits.OnesCount64(word)
				}
				if members > len(eqs) {
					return malformed("v.batchResolve", src)
				}
				for _, eq := range eqs[:members] {
					for _, dest := range refs[k].dests {
						at := int(dest)*n + int(src)
						pend[at] = append(pend[at], batchDeliverItem{ID: w.ids[refs[k].pos], Node: node, Eq: eq})
						shipped++
					}
					k++
				}
				eqs = eqs[members:]
			}
			if len(eqs) != 0 {
				return malformed("v.batchResolve", src)
			}
		}
		if shipped == 0 {
			continue
		}
		dsts := sc.dsts[:0]
		for dest := 0; dest < n; dest++ {
			for src := 0; src < n; src++ {
				if len(pend[dest*n+src]) > 0 {
					dsts = append(dsts, network.SiteID(dest))
					break
				}
			}
		}
		sc.dsts = dsts
		err = network.Fanout(sys.cluster, len(dsts), sys, func(sys *System, l *network.Lane, i int) error {
			sc, n := sys.sc, sys.scheme.NumSites
			dest := sc.dsts[i]
			for src := 0; src < n; src++ {
				items := sc.pend[int(dest)*n+src]
				if len(items) == 0 {
					continue
				}
				if _, err := send(sys, l, network.SiteID(src), dest, mBatchDeliver, batchDeliverReq{Items: items}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if !sys.direct {
			sys.cluster.AddEqids(shipped)
		}
		for k := range pend {
			pend[k] = pend[k][:0]
		}
	}
	return nil
}

// waveNodes appends to walk the union of the states' scheduled nodes in
// walk order (System.walksBefore).
func (sys *System) waveNodes(walk []optimizer.NodeID, states []uState) []optimizer.NodeID {
	sc := sys.sc
	if len(sc.nodeSeen) < len(sys.plan.Nodes) {
		sc.nodeSeen = make([]bool, len(sys.plan.Nodes)) // the plan grew
	}
	seen := sc.nodeSeen
	var last *runSchedule
	merged := false
	for i := range states {
		sched := states[i].sched
		if sched == nil || sched == last {
			continue
		}
		merged = merged || last != nil
		last = sched
		for _, at := range last.walk {
			if node := last.order[at]; !seen[node] {
				seen[node] = true
				walk = append(walk, node)
			}
		}
	}
	for _, node := range walk {
		seen[node] = false
	}
	if merged { // one schedule's walk is in order already
		sort.Slice(walk, func(i, j int) bool { return sys.walksBefore(walk[i], walk[j]) })
	}
	return walk
}

// idxPhase runs Fig. 4 at each alive rule's IDX site, one call per site
// hosting the IDX of a rule some update has alive; every site gets the
// same request and runs the rules it hosts. The marks land in V in each
// site's reply order (conflicting flips of one (tuple, rule) mark only
// ever meet inside one IDX site's reply, where the order is the mutation
// order).
func (sys *System) idxPhase(w *wave, alive []uint64) error {
	sc, rw := sys.sc, words(len(sys.rules))
	hosts := sc.hosts
	clear(hosts)
	union := bitset(sc.rows(rw))
	for i, word := range alive {
		union[i%rw] |= word
	}
	for wi, word := range union {
		for ; word != 0; word &= word - 1 {
			hosts[sys.byNo[wi<<6+bits.TrailingZeros64(word)].site] = true
		}
	}
	idxSites := sys.sitesWhere(func(s int) bool { return hosts[s] })
	sc.ruleReq = batchRuleReq{Gen: sys.gen, IDs: w.ids, Ins: w.ins, Alive: alive}
	sc.targets, sc.ruleResps = idxSites, sized(sc.ruleResps, len(idxSites))
	err := network.Fanout(sys.cluster, len(idxSites), sys, func(sys *System, l *network.Lane, i int) error {
		sc := sys.sc
		s := sc.targets[i]
		var err error
		sc.ruleResps[i], err = send(sys, l, s, s, mBatchRule, sc.ruleReq)
		return err
	})
	if err != nil {
		return err
	}
	for si, s := range idxSites {
		resp := &sc.ruleResps[si]
		if len(resp.Rules) != len(resp.At) || len(resp.Counts) != len(resp.At) {
			return malformed("v.batchRule", s)
		}
		ids := resp.IDs
		for k, at := range resp.At {
			no, count := resp.Rules[k], resp.Counts[k]
			if at < 0 || at >= len(w.ids) || no < 0 || no >= len(sys.byNo) || !sys.ruleRow(alive, at).has(no) ||
				sys.byNo[no].site != s || count <= 0 || count > len(ids) {
				return malformed("v.batchRule", s)
			}
			rule := sys.byNo[no].rule.ID
			for _, id := range ids[:count] {
				if w.ins.has(at) {
					sys.v.Add(relation.TupleID(id), rule)
				} else {
					sys.v.Remove(relation.TupleID(id), rule)
				}
			}
			ids = ids[count:]
		}
		if len(ids) != 0 {
			return malformed("v.batchRule", s)
		}
	}
	return nil
}

// releaseWave drops the reference counts the wave's deleted tuples held
// on the nodes they resolved: per site one call, listing the nodes in
// reverse walk order (a consumer before its inputs) with each node's
// deleted members.
func (sys *System) releaseWave(w *wave) error {
	iw, reqs := words(len(w.ids)), sys.sc.releases // by site
	for k := len(w.walk) - 1; k >= 0; k-- {
		row := w.members[k*iw : (k+1)*iw]
		deleted := uint64(0)
		for wi, word := range row {
			deleted |= word &^ w.ins[wi]
		}
		if deleted == 0 {
			continue
		}
		req := &reqs[sys.plan.Nodes[w.walk[k]].Site]
		req.IDs = w.ids
		req.Nodes = append(req.Nodes, int(w.walk[k]))
		for wi, word := range row {
			req.Members = append(req.Members, word&^w.ins[wi])
		}
	}
	sys.sc.targets = sys.sitesWhere(func(s int) bool { return len(reqs[s].Nodes) > 0 })
	return network.Fanout(sys.cluster, len(sys.sc.targets), sys, func(sys *System, l *network.Lane, i int) error {
		sc := sys.sc
		s := sc.targets[i]
		_, err := send(sys, l, s, s, mBatchRelease, sc.releases[s])
		return err
	})
}

// endWave clears the wave's eqid buffers, one call per involved site.
func (sys *System) endWave(w *wave) error {
	endIDs := sys.sc.endIDs // by site
	for i := range w.states {
		if sched := w.states[i].sched; sched != nil {
			for _, s := range sched.involved {
				endIDs[s] = append(endIDs[s], w.ids[i])
			}
		}
	}
	sys.sc.targets = sys.sitesWhere(func(s int) bool { return len(endIDs[s]) > 0 })
	return network.Fanout(sys.cluster, len(sys.sc.targets), sys, func(sys *System, l *network.Lane, i int) error {
		sc := sys.sc
		s := sc.targets[i]
		_, err := send(sys, l, s, s, mBatchEnd, batchEndReq{IDs: sc.endIDs[s]})
		return err
	})
}
