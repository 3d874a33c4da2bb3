package vertical

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/cfd"
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
//	5. Fig. 4 case analyses batched per IDX site, replayed in the order
//	   the site ran them;
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

// newWave returns the wave over the given tuple ids, all deletions so far.
func (sys *System) newWave(ids []int64) *wave {
	return &wave{
		states: make([]uState, len(ids)),
		ids:    ids,
		ins:    make(bitset, words(len(ids))),
		failed: make([]uint64, len(ids)*words(len(sys.rules))),
	}
}

// unfailed returns a rule-set table: per position, the rules of mask whose
// pattern constants the tuple did not fail.
func (w *wave) unfailed(mask bitset) []uint64 {
	rows := make([]uint64, len(w.failed))
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

// applyCoalesced runs one normalized batch wave by wave, maintaining V
// and returning the exact ∆V.
func (sys *System) applyCoalesced(norm relation.UpdateList) (*cfd.Delta, error) {
	delta := cfd.NewDelta()
	for start := 0; start < len(norm); {
		end := start + 1
		seen := map[relation.TupleID]bool{norm[start].Tuple.ID: true}
		for end < len(norm) && !seen[norm[end].Tuple.ID] {
			seen[norm[end].Tuple.ID] = true
			end++
		}
		if err := sys.applyWave(norm[start:end], delta); err != nil {
			return nil, err
		}
		start = end
	}
	delta.Apply(sys.v)
	if err := sys.barrier(); err != nil {
		return nil, err
	}
	return delta, nil
}

// applyWave runs one wave (distinct tuple ids) through the grouped
// phases, appending its ∆V emissions to delta in exact replay order.
func (sys *System) applyWave(updates relation.UpdateList, delta *cfd.Delta) error {
	w := sys.newWave(make([]int64, len(updates)))
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
	if err := sys.constPhase(w, sys.constRules, sys.constNo, delta); err != nil {
		return err
	}

	// 4. Variable CFDs: the alive rules' plan nodes, stage by stage, then
	// 5. Fig. 4 at each alive rule's IDX site.
	if err := sys.varPhase(w, sys.varMask, delta); err != nil {
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
	return sys.cluster.Fanout(len(sys.sites), network.FanoutOpts{}, func(i int) error {
		var req batchFragReq
		for _, u := range wave {
			if (u.Kind == relation.Delete) != (op == OpDelete) {
				continue
			}
			item := applyReq{Op: op, ID: int64(u.Tuple.ID)}
			if op == OpInsert {
				item.Values = u.Tuple.ProjectTuple(sys.schema, sys.fragSch[i]).Values
			}
			req.Items = append(req.Items, item)
		}
		if len(req.Items) == 0 {
			return nil
		}
		return sys.send(sys.sites[i].id, sys.sites[i].id, "v.batchFrag", req, nil)
	})
}

// sitesWhere lists, ascending, the sites has holds for.
func (sys *System) sitesWhere(has func(site int) bool) []network.SiteID {
	var out []network.SiteID
	for s := range sys.sites {
		if has(s) {
			out = append(out, network.SiteID(s))
		}
	}
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
	req := batchEvalReq{Gen: sys.gen, IDs: w.ids}
	resps := make([]batchEvalResp, len(checkers))
	err := sys.cluster.Fanout(len(checkers), network.FanoutOpts{}, func(i int) error {
		c := checkers[i]
		return sys.send(c, c, "v.batchEval", req, &resps[i])
	})
	if err != nil {
		return err
	}
	for ci, c := range checkers {
		failed := resps[ci].Failed
		if !validRows(failed, len(w.ids), len(sys.rules)) {
			return malformed("v.batchEval", c)
		}
		for i, word := range failed {
			w.failed[i] |= word
		}
	}
	return nil
}

// constPhase runs the wave through the given constant rules (rules[i]
// has number nos[i]): votes coalesced per (checker, coordinator) pair
// across the wave, then the coordinator classifications batched per
// site; ∆V replays per coordinator in (update, rule number) order.
func (sys *System) constPhase(w *wave, rules []*cfd.CFD, nos []int, delta *cfd.Delta) error {
	if len(rules) == 0 {
		return nil
	}
	votes := make(map[[2]network.SiteID][]batchVoteItem)
	voteAt := make(map[[2]network.SiteID]int) // index of the pair's item for the current update
	for i := range w.states {
		failed := sys.ruleRow(w.failed, i)
		clear(voteAt)
		for ci, r := range rules {
			if failed.has(nos[ci]) {
				continue // non-matching tuples ship nothing
			}
			coord := sys.constCoord[r.ID]
			for _, s := range sys.constSites[r.ID] {
				if s == coord {
					continue
				}
				key := [2]network.SiteID{s, coord}
				at, ok := voteAt[key]
				if !ok {
					votes[key] = append(votes[key], batchVoteItem{ID: w.ids[i]})
					at = len(votes[key]) - 1
					voteAt[key] = at
				}
				votes[key][at].Rules = append(votes[key][at].Rules, r.ID)
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
	err := sys.cluster.Fanout(len(pairs), network.FanoutOpts{}, func(i int) error {
		k := pairs[i]
		return sys.send(k[0], k[1], "v.batchVote", batchVoteReq{Items: votes[k]}, nil)
	})
	if err != nil {
		return err
	}

	// Each coordinator classifies, per tuple, the rules it coordinates
	// that the tuple did not fail: the complement of the failed row under
	// the coordinator's mask.
	rw := words(len(sys.rules))
	masks := make([]bitset, len(sys.sites))
	for ci, r := range rules {
		coord := sys.constCoord[r.ID]
		if masks[coord] == nil {
			masks[coord] = make(bitset, rw)
		}
		masks[coord].set(nos[ci])
	}
	var coords []network.SiteID
	reqs := make([]batchConstReq, len(sys.sites))
	for s, mask := range masks {
		if mask == nil {
			continue
		}
		if asked := w.unfailed(mask); !bitset(asked).empty() {
			coords = append(coords, network.SiteID(s))
			reqs[s] = batchConstReq{Gen: sys.gen, IDs: w.ids, Rules: asked}
		}
	}
	resps := make([]batchConstResp, len(coords))
	err = sys.cluster.Fanout(len(coords), network.FanoutOpts{}, func(i int) error {
		s := coords[i]
		return sys.send(s, s, "v.batchConst", reqs[s], &resps[i])
	})
	if err != nil {
		return err
	}
	for si, s := range coords {
		violations, asked := resps[si].Violations, reqs[s].Rules
		if len(violations) != len(asked) {
			return malformed("v.batchConst", s)
		}
		for k, word := range violations {
			if word&^asked[k] != 0 {
				return malformed("v.batchConst", s)
			}
			i := k / rw
			for ; word != 0; word &= word - 1 {
				rule := sys.ruleByNo[k%rw<<6+bits.TrailingZeros64(word)].ID
				if w.ins.has(i) {
					delta.Add(relation.TupleID(w.ids[i]), rule)
				} else {
					delta.Remove(relation.TupleID(w.ids[i]), rule)
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
func (sys *System) varPhase(w *wave, mask bitset, delta *cfd.Delta) error {
	alive := w.unfailed(mask)
	for i := range w.states {
		w.states[i].sched = sys.scheduleFor(sys.ruleRow(alive, i))
	}
	if err := sys.resolveStages(w); err != nil {
		return err
	}
	return sys.idxPhase(w, alive, delta)
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
	w.walk = sys.waveNodes(w.states)
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
	iw := words(len(w.ids))
	nodes := make([]int, len(walk))
	w.members = make([]uint64, len(walk)*iw)
	refs := make([]shipRef, 0, total) // one per (node, member), in reply order

	n := len(sys.sites)
	reqs := make([]batchResolveReq, n)
	resps := make([]batchResolveResp, n)
	pend := make([][]batchDeliverItem, n*n) // [dest*n+src]
	srcs := make([]network.SiteID, 0, n)
	dsts := make([]network.SiteID, 0, n)
	for lo := 0; lo < len(walk); {
		stage, stageRefs := stages[walk[lo]], len(refs)
		srcs = srcs[:0]
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

		err := sys.cluster.Fanout(len(srcs), network.FanoutOpts{}, func(i int) error {
			s := srcs[i]
			return sys.send(s, s, "v.batchResolve", reqs[s], &resps[s])
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
		dsts = dsts[:0]
		for dest := 0; dest < n; dest++ {
			for src := 0; src < n; src++ {
				if len(pend[dest*n+src]) > 0 {
					dsts = append(dsts, network.SiteID(dest))
					break
				}
			}
		}
		err = sys.cluster.Fanout(len(dsts), network.FanoutOpts{}, func(i int) error {
			dest := dsts[i]
			for src := 0; src < n; src++ {
				items := pend[int(dest)*n+src]
				if len(items) == 0 {
					continue
				}
				if err := sys.send(network.SiteID(src), dest, "v.batchDeliver", batchDeliverReq{Items: items}, nil); err != nil {
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
		clear(pend)
	}
	return nil
}

// waveNodes returns the union of the states' scheduled nodes in walk
// order (System.walksBefore).
func (sys *System) waveNodes(states []uState) []optimizer.NodeID {
	seen := make([]bool, len(sys.plan.Nodes))
	var walk []optimizer.NodeID
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
	if merged { // one schedule's walk is in order already
		sort.Slice(walk, func(i, j int) bool { return sys.walksBefore(walk[i], walk[j]) })
	}
	return walk
}

// idxPhase runs Fig. 4 at each alive rule's IDX site, one call per site
// hosting the IDX of a rule some update has alive; every site gets the
// same request and runs the rules it hosts. ∆V replays in each site's
// reply order (conflicting flips of one (tuple, rule) mark only ever meet
// inside one IDX site's reply, where the order is the mutation order).
func (sys *System) idxPhase(w *wave, alive []uint64, delta *cfd.Delta) error {
	rw := words(len(sys.rules))
	hosts := make([]bool, len(sys.sites))
	union := make(bitset, rw)
	for i, word := range alive {
		union[i%rw] |= word
	}
	for wi, word := range union {
		for ; word != 0; word &= word - 1 {
			hosts[sys.idxSite[wi<<6+bits.TrailingZeros64(word)]] = true
		}
	}
	idxSites := sys.sitesWhere(func(s int) bool { return hosts[s] })
	req := batchRuleReq{Gen: sys.gen, IDs: w.ids, Ins: w.ins, Alive: alive}
	resps := make([]batchRuleResp, len(idxSites))
	err := sys.cluster.Fanout(len(idxSites), network.FanoutOpts{}, func(i int) error {
		s := idxSites[i]
		return sys.send(s, s, "v.batchRule", req, &resps[i])
	})
	if err != nil {
		return err
	}
	for si, s := range idxSites {
		resp := &resps[si]
		if len(resp.Rules) != len(resp.At) || len(resp.Counts) != len(resp.At) {
			return malformed("v.batchRule", s)
		}
		ids := resp.IDs
		for k, at := range resp.At {
			no, count := resp.Rules[k], resp.Counts[k]
			if at < 0 || at >= len(w.ids) || no < 0 || no >= len(sys.ruleByNo) || !sys.ruleRow(alive, at).has(no) ||
				sys.idxSite[no] != s || count <= 0 || count > len(ids) {
				return malformed("v.batchRule", s)
			}
			rule := sys.ruleByNo[no].ID
			for _, id := range ids[:count] {
				if w.ins.has(at) {
					delta.Add(relation.TupleID(id), rule)
				} else {
					delta.Remove(relation.TupleID(id), rule)
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
	iw := words(len(w.ids))
	reqs := make([]batchReleaseReq, len(sys.sites))
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
	sites := sys.sitesWhere(func(s int) bool { return len(reqs[s].Nodes) > 0 })
	return sys.cluster.Fanout(len(sites), network.FanoutOpts{}, func(i int) error {
		s := sites[i]
		return sys.send(s, s, "v.batchRelease", reqs[s], nil)
	})
}

// endWave clears the wave's eqid buffers, one call per involved site.
func (sys *System) endWave(w *wave) error {
	endIDs := make([][]int64, len(sys.sites))
	for i := range w.states {
		if sched := w.states[i].sched; sched != nil {
			for _, s := range sched.involved {
				endIDs[s] = append(endIDs[s], w.ids[i])
			}
		}
	}
	sites := sys.sitesWhere(func(s int) bool { return len(endIDs[s]) > 0 })
	return sys.cluster.Fanout(len(sites), network.FanoutOpts{}, func(i int) error {
		s := sites[i]
		return sys.send(s, s, "v.batchEnd", batchEndReq{IDs: endIDs[s]}, nil)
	})
}
