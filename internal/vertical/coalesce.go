package vertical

import (
	"fmt"
	"sort"

	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/optimizer"
	"repro/internal/relation"
)

// This file is the incVer driver — the one protocol ApplyBatch, seeding
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
//	5. Fig. 4 case analyses batched per IDX site, replayed in item order;
//	6. reference-count releases, buffer clears and fragment removals,
//	   batched per site.
//
// The shipped eqid count does not depend on how ∆D is cut into batches
// (the same eqids travel the same edges); what a larger wave collapses is
// the message count and the per-message framing. After every batch V
// equals a fresh centralized Detect on the current D — the differential
// oracles and the parity tests pin this.

// uState tracks one update through a wave's phases.
type uState struct {
	tid    int64
	op     OpKind
	failed ruleSet // rules whose pattern constants the tuple fails
	alive  []*cfd.CFD
	sched  *runSchedule
	pos    int // cursor into sched.walk during node resolution
}

// ruleSet is a bitset over the system's rules: bit i is constRules[i],
// bit len(constRules)+i is varRules[i] (System.ruleBit by rule id).
type ruleSet []uint64

func (s ruleSet) has(bit int) bool { return s[bit>>6]&(1<<(bit&63)) != 0 }
func (s ruleSet) set(bit int)      { s[bit>>6] |= 1 << (bit & 63) }

// newStates allocates one wave's states in a single slab, each with an
// empty ruleSet sized to the current rule count.
func (sys *System) newStates(n int) []*uState {
	words := (len(sys.rules) + 63) / 64
	bits := make([]uint64, n*words)
	slab := make([]uState, n)
	states := make([]*uState, n)
	for i := range slab {
		slab[i].failed = bits[i*words : (i+1)*words : (i+1)*words]
		states[i] = &slab[i]
	}
	return states
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
func (sys *System) applyWave(wave relation.UpdateList, delta *cfd.Delta) error {
	states := sys.newStates(len(wave))
	for i, u := range wave {
		us := states[i]
		us.tid = int64(u.Tuple.ID)
		if u.Kind == relation.Delete {
			us.op = OpDelete
		}
	}

	// 1. Insertions reach every fragment first (∆Di delivery).
	if err := sys.deliverFragments(wave, OpInsert); err != nil {
		return err
	}

	// 2. Pattern constants, every checker site over the whole wave.
	if err := sys.evalConstants(states, sys.checkers); err != nil {
		return err
	}

	// 3. Constant CFDs.
	if err := sys.constPhase(states, sys.constRules, 0, delta); err != nil {
		return err
	}

	// 4. Variable CFDs: alive sets and memoized schedules per update,
	// then the scheduled plan nodes, stage by stage.
	for _, us := range states {
		var alivePos []int
		for i, r := range sys.varRules {
			if !us.failed.has(len(sys.constRules) + i) {
				us.alive = append(us.alive, r)
				alivePos = append(alivePos, i)
			}
		}
		if len(us.alive) > 0 {
			us.sched = sys.scheduleFor(us.alive, alivePos)
		}
	}
	if err := sys.resolveStages(states); err != nil {
		return err
	}

	// 5. Fig. 4 at each alive rule's IDX site.
	if err := sys.idxPhase(states, delta); err != nil {
		return err
	}

	// 6. Deletions release reference counts top-down, batched per site.
	releaseItems := make(map[network.SiteID][]batchReleaseItem)
	for _, us := range states {
		if us.op != OpDelete || us.sched == nil {
			continue
		}
		for i := len(us.sched.order) - 1; i >= 0; i-- {
			n := us.sched.order[i]
			src := network.SiteID(sys.plan.Node(n).Site)
			releaseItems[src] = append(releaseItems[src], batchReleaseItem{ID: us.tid, Node: int(n)})
		}
	}
	releaseSites := network.SortedSites(releaseItems)
	err := sys.cluster.Fanout(len(releaseSites), network.FanoutOpts{}, func(i int) error {
		s := releaseSites[i]
		return sys.send(s, s, "v.batchRelease", batchReleaseReq{Items: releaseItems[s]}, nil)
	})
	if err != nil {
		return err
	}

	if err := sys.endWave(states); err != nil {
		return err
	}

	// 7. Deletions leave the fragments last (values were needed above).
	return sys.deliverFragments(wave, OpDelete)
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

// evalConstants checks the wave's pattern constants at every listed
// checker site and folds the failures into the states.
func (sys *System) evalConstants(states []*uState, checkers []network.SiteID) error {
	ids := make([]int64, len(states))
	for i, us := range states {
		ids[i] = us.tid
	}
	resps := make([]batchEvalResp, len(checkers))
	err := sys.cluster.Fanout(len(checkers), network.FanoutOpts{}, func(i int) error {
		c := checkers[i]
		return sys.send(c, c, "v.batchEval", batchEvalReq{IDs: ids}, &resps[i])
	})
	if err != nil {
		return err
	}
	for ci := range checkers {
		if len(resps[ci].Failed) != len(states) {
			return fmt.Errorf("vertical: v.batchEval: malformed batch response from site %d", checkers[ci])
		}
		for ui, failed := range resps[ci].Failed {
			for _, rid := range failed {
				if bit, ok := sys.ruleBit[rid]; ok {
					states[ui].failed.set(bit)
				}
			}
		}
	}
	return nil
}

// constPhase runs the wave through the given constant rules (rules[i]
// is bit bitBase+i of a ruleSet): votes coalesced per (checker,
// coordinator) pair across the wave, then the coordinator
// classifications batched per site; ∆V replays in (update, rule) order.
func (sys *System) constPhase(states []*uState, rules []*cfd.CFD, bitBase int, delta *cfd.Delta) error {
	votes := make(map[[2]network.SiteID][]batchVoteItem)
	voteAt := make(map[[2]network.SiteID]int) // index of the pair's item for the current update
	for _, us := range states {
		clear(voteAt)
		for ci, r := range rules {
			if us.failed.has(bitBase + ci) {
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
					votes[key] = append(votes[key], batchVoteItem{ID: us.tid})
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

	constItems := make(map[network.SiteID][]batchConstItem)
	type constRef struct {
		us   *uState
		rule string
	}
	constRefs := make(map[network.SiteID][]constRef)
	for _, us := range states {
		for ci, r := range rules {
			if us.failed.has(bitBase + ci) {
				continue
			}
			coord := sys.constCoord[r.ID]
			constItems[coord] = append(constItems[coord], batchConstItem{Rule: r.ID, ID: us.tid, Op: us.op})
			constRefs[coord] = append(constRefs[coord], constRef{us, r.ID})
		}
	}
	constSites := network.SortedSites(constItems)
	constResps := make([]batchConstResp, len(constSites))
	err = sys.cluster.Fanout(len(constSites), network.FanoutOpts{}, func(i int) error {
		s := constSites[i]
		return sys.send(s, s, "v.batchConst", batchConstReq{Items: constItems[s]}, &constResps[i])
	})
	if err != nil {
		return err
	}
	for si, s := range constSites {
		if len(constResps[si].Violations) != len(constItems[s]) {
			return fmt.Errorf("vertical: v.batchConst: malformed batch response from site %d", s)
		}
		for k, violation := range constResps[si].Violations {
			if !violation {
				continue
			}
			ref := constRefs[s][k]
			if ref.us.op == OpInsert {
				delta.Add(relation.TupleID(ref.us.tid), ref.rule)
			} else {
				delta.Remove(relation.TupleID(ref.us.tid), ref.rule)
			}
		}
	}
	return nil
}

// resolveStages resolves every scheduled plan node of the wave's updates
// and ships the eqids, one cross-site stage (optimizer.Plan.Stages) at a
// time. A stage is two fan-out rounds: one v.batchResolve per involved
// site, carrying that site's nodes of the stage in ascending id, then one
// v.batchDeliver per (source, destination) edge with eqids to ship, one
// worker per destination sending in ascending source order — so every
// site sees a deterministic call stream whatever the worker count. A
// node's items keep the wave's update order, so each HEV allocates the
// same eqids as when nodes resolved one call at a time.
func (sys *System) resolveStages(states []*uState) error {
	walk := sys.waveNodes(states)
	stages := sys.plan.Stages()
	siteOf := func(node optimizer.NodeID) network.SiteID { return network.SiteID(sys.plan.Nodes[node].Site) }

	// One backing array each for the wave's groups, items and per-item
	// destinations: in walk order a site's groups of one stage are
	// adjacent, and so are a group's items.
	total := 0
	for _, us := range states {
		if us.sched != nil {
			total += len(us.sched.walk)
		}
	}
	groups := make([]batchResolveGroup, 0, len(walk))
	items := make([]batchResolveItem, 0, total)
	dests := make([][]network.SiteID, 0, total) // where items[i]'s eqid ships

	n := len(sys.sites)
	reqs := make([]batchResolveReq, n)
	resps := make([]batchResolveResp, n)
	pend := make([][]batchDeliverItem, n*n) // [dest*n+src]
	srcs := make([]network.SiteID, 0, n)
	dsts := make([]network.SiteID, 0, n)
	for lo := 0; lo < len(walk); {
		stage, stageItems := stages[walk[lo]], len(items)
		srcs = srcs[:0]
		for lo < len(walk) && stages[walk[lo]] == stage {
			site, siteGroups := siteOf(walk[lo]), len(groups)
			for ; lo < len(walk) && stages[walk[lo]] == stage && siteOf(walk[lo]) == site; lo++ {
				node, from := walk[lo], len(items)
				for _, us := range states {
					if us.sched == nil || us.pos == len(us.sched.walk) {
						continue
					}
					at := us.sched.walk[us.pos]
					if us.sched.order[at] != node {
						continue
					}
					items = append(items, batchResolveItem{ID: us.tid, Acquire: us.op == OpInsert})
					dests = append(dests, us.sched.dests[at])
					us.pos++
				}
				groups = append(groups, batchResolveGroup{Node: int(node), Items: items[from:]})
			}
			srcs = append(srcs, site)
			reqs[site].Groups = groups[siteGroups:]
		}

		err := sys.cluster.Fanout(len(srcs), network.FanoutOpts{}, func(i int) error {
			s := srcs[i]
			return sys.send(s, s, "v.batchResolve", reqs[s], &resps[s])
		})
		if err != nil {
			return err
		}

		// The stage's items lie in items[stageItems:] site by site, group
		// by group — the order each site's reply lists its eqids in.
		shipped, k := 0, stageItems
		for _, src := range srcs {
			eqs := resps[src].Eqs
			for _, g := range reqs[src].Groups {
				if len(g.Items) > len(eqs) {
					return fmt.Errorf("vertical: v.batchResolve: malformed batch response from site %d", src)
				}
				for j, item := range g.Items {
					for _, dest := range dests[k] {
						at := int(dest)*n + int(src)
						pend[at] = append(pend[at], batchDeliverItem{ID: item.ID, Node: g.Node, Eq: eqs[j]})
						shipped++
					}
					k++
				}
				eqs = eqs[len(g.Items):]
			}
			if len(eqs) != 0 {
				return fmt.Errorf("vertical: v.batchResolve: malformed batch response from site %d", src)
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
func (sys *System) waveNodes(states []*uState) []optimizer.NodeID {
	seen := make([]bool, len(sys.plan.Nodes))
	var walk []optimizer.NodeID
	var last *runSchedule
	merged := false
	for _, us := range states {
		if us.sched == nil || us.sched == last {
			continue
		}
		merged = merged || last != nil
		last = us.sched
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

// idxPhase runs Fig. 4 at each alive rule's IDX site, batched per site;
// ∆V replays in each site's item order (conflicting flips of one (tuple,
// rule) mark only ever meet inside one IDX site's list, where the order
// is the mutation order).
func (sys *System) idxPhase(states []*uState, delta *cfd.Delta) error {
	ruleItems := make(map[network.SiteID][]batchRuleItem)
	type ruleRef struct {
		us   *uState
		rule string
	}
	ruleRefs := make(map[network.SiteID][]ruleRef)
	for _, us := range states {
		for _, r := range us.alive {
			idxSite := network.SiteID(sys.plan.Bindings[r.ID].IDXSite)
			ruleItems[idxSite] = append(ruleItems[idxSite], batchRuleItem{Rule: r.ID, ID: us.tid, Op: us.op})
			ruleRefs[idxSite] = append(ruleRefs[idxSite], ruleRef{us, r.ID})
		}
	}
	ruleSites := network.SortedSites(ruleItems)
	ruleResps := make([]batchRuleResp, len(ruleSites))
	err := sys.cluster.Fanout(len(ruleSites), network.FanoutOpts{}, func(i int) error {
		s := ruleSites[i]
		return sys.send(s, s, "v.batchRule", batchRuleReq{Items: ruleItems[s]}, &ruleResps[i])
	})
	if err != nil {
		return err
	}
	for si, s := range ruleSites {
		if len(ruleResps[si].Items) != len(ruleItems[s]) {
			return fmt.Errorf("vertical: v.batchRule: malformed batch response from site %d", s)
		}
		for k, ir := range ruleResps[si].Items {
			rule := ruleRefs[s][k].rule
			for _, id := range ir.Added {
				delta.Add(relation.TupleID(id), rule)
			}
			for _, id := range ir.Removed {
				delta.Remove(relation.TupleID(id), rule)
			}
		}
	}
	return nil
}

// endWave clears the wave's eqid buffers, one call per involved site.
func (sys *System) endWave(states []*uState) error {
	endIDs := make(map[network.SiteID][]int64)
	for _, us := range states {
		if us.sched == nil {
			continue
		}
		for _, s := range us.sched.involved {
			endIDs[s] = append(endIDs[s], us.tid)
		}
	}
	endSites := network.SortedSites(endIDs)
	return sys.cluster.Fanout(len(endSites), network.FanoutOpts{}, func(i int) error {
		s := endSites[i]
		return sys.send(s, s, "v.batchEnd", batchEndReq{IDs: endIDs[s]}, nil)
	})
}
