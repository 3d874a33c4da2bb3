package horizontal

import (
	"bytes"
	"sort"

	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/relation"
)

// This file is the incHor driver — the one protocol ApplyBatch, seeding
// and rule seeding all run; a per-update round is a wave of one. One wave
// runs as phases —
//
//	A. local phase: one same-site call per owning site applies the whole
//	   batch's fragment and class-membership changes and reports the
//	   touched (rule, X) groups with the local evidence;
//	B. decision: the driver aggregates each group's evidence across its
//	   touching owners. Most groups decide without any shipment (the §6
//	   short-circuits, now at group granularity): an unchanged class
//	   structure keeps its flag; a group already violating that still has
//	   ≥ 2 local B values stays violating; deletions from a non-violating
//	   group cannot create violations;
//	C. probe: for the rest, each probing owner forwards its evidence to
//	   the wave's relay site (one message per owner), and the relay runs
//	   a single fan-out carrying every group's survey question or promote
//	   order — one envelope per (relay, peer), O(n) messages per wave
//	   instead of one broadcast per update;
//	D. settle: final flags are pinned — same-site at the touching owners,
//	   and one envelope per (relay, peer) for the demote round.
//
// After every batch V equals a fresh centralized Detect on the current D
// (the parity tests and the differential oracles pin this) however ∆D is
// cut into batches; what the cut changes is the number of wire messages:
// O(n) per wave, against O(|∆D| · n) when every update is its own batch.

// hGroup is the driver-side aggregate of one touched (rule, X) group.
type hGroup struct {
	comp *cfd.Compiled
	x    code
	xref keyRef

	owners            []network.SiteID
	preKnown, preFlag bool
	structural, newB  bool
	allBs             [][]byte // distinct B digests known so far, capped at 2
	inserted          map[int64]bool
	insertedOrder     []int64
	postFlag, decided bool
	needProbe         bool

	// remote survey evidence, aligned with the probed sites.
	remoteSites    []network.SiteID
	remoteHas      []bool
	remoteFlag     []bool
	remotePromoted []bool
}

func (g *hGroup) ownedBy(s network.SiteID) bool {
	for _, o := range g.owners {
		if o == s {
			return true
		}
	}
	return false
}

// allOwnerItems reports whether every settle item queued for a site
// belongs to a group the site itself touched — in which case the settle
// is the site's own local work (unmetered); otherwise a demote order is
// aboard and the message travels from the relay.
func allOwnerItems(refs []*hGroup, site network.SiteID) bool {
	for _, g := range refs {
		if !g.ownedBy(site) {
			return false
		}
	}
	return true
}

// mergeBs folds digests into the group's capped distinct-digest set.
func (g *hGroup) mergeBs(bs [][]byte) {
	for _, b := range bs {
		if len(g.allBs) >= 2 {
			return
		}
		dup := false
		for _, have := range g.allBs {
			if bytes.Equal(have, b) {
				dup = true
				break
			}
		}
		if !dup {
			g.allBs = append(g.allBs, b)
		}
	}
}

// mark is one pending ∆V emission.
type mark struct {
	id   int64
	rule string
}

// batchWaveSize bounds how many updates one wave of the batch-grouped
// protocol processes. Chunking a very large ∆D serves two purposes: it
// bounds the driver's per-wave aggregation state, and — because the relay
// role rotates across waves — it spreads the aggregation load over the
// sites instead of funneling a whole huge batch's probe traffic through
// one site (which would recreate exactly the single-coordinator
// bottleneck that collapses the batch baselines' scaleup).
const batchWaveSize = 128

// applyCoalesced runs one normalized batch through the batch-grouped
// protocol wave by wave, maintaining V and returning the exact ∆V.
func (sys *System) applyCoalesced(norm relation.UpdateList) (*cfd.Delta, error) {
	delta := cfd.NewDelta()
	for start := 0; start < len(norm); start += batchWaveSize {
		end := start + batchWaveSize
		if end > len(norm) {
			end = len(norm)
		}
		if err := sys.applyWaveCoalesced(norm[start:end], delta); err != nil {
			return nil, err
		}
	}
	delta.Apply(sys.v)
	return delta, nil
}

// applyWaveCoalesced runs one wave through the grouped phases, appending
// its ∆V emissions (removals before additions, so modifications replay
// exactly) to delta.
func (sys *System) applyWaveCoalesced(norm relation.UpdateList, delta *cfd.Delta) error {
	if len(norm) == 0 {
		return nil
	}

	// Phase A: route every update to its owner, one local-phase call per
	// owning site (same-site, unmetered — ∆D delivery is not detection
	// traffic).
	perOwner := make([][]batchApplyItem, len(sys.sites))
	for _, u := range norm {
		ownerInt, err := sys.scheme.SiteFor(sys.schema, u.Tuple)
		if err != nil {
			return err
		}
		op := OpInsert
		if u.Kind == relation.Delete {
			op = OpDelete
		}
		perOwner[ownerInt] = append(perOwner[ownerInt], batchApplyItem{Op: op, ID: int64(u.Tuple.ID), Values: u.Tuple.Values})
	}
	var owners []network.SiteID
	for i := range perOwner {
		if len(perOwner[i]) > 0 {
			owners = append(owners, network.SiteID(i))
		}
	}
	applyResps := make([]batchApplyResp, len(owners))
	err := sys.cluster.Fanout(len(owners), network.FanoutOpts{}, func(i int) error {
		o := owners[i]
		return sys.send(o, o, "h.batchApply", batchApplyReq{Updates: perOwner[o], RawKeys: !sys.useMD5}, &applyResps[i])
	})
	if err != nil {
		return err
	}

	// Aggregate: constant-rule marks emit directly; touched groups merge
	// across owners. Removals are emitted before additions at the end, so
	// a modification (delete + insert of one id) replays in update order.
	var removes, adds []mark
	byRule := make(map[string]map[code]*hGroup)
	var groups []*hGroup
	for oi, o := range owners {
		resp := &applyResps[oi]
		for _, c := range resp.Consts {
			if c.Add {
				adds = append(adds, mark{c.ID, c.Rule})
			} else {
				removes = append(removes, mark{c.ID, c.Rule})
			}
		}
		for ti := range resp.Groups {
			tg := &resp.Groups[ti]
			byX, ok := byRule[tg.Rule]
			if !ok {
				byX = make(map[code]*hGroup)
				byRule[tg.Rule] = byX
			}
			var dx code
			copy(dx[:], tg.X)
			g, ok := byX[dx]
			if !ok {
				comp := sys.compByID[tg.Rule]
				g = &hGroup{comp: comp, x: dx, inserted: make(map[int64]bool)}
				if sys.useMD5 {
					g.xref = keyRef{Digest: tg.X}
				} else {
					g.xref = keyRef{Raw: tg.XRaw}
				}
				byX[dx] = g
				groups = append(groups, g)
			}
			g.owners = append(g.owners, o) // owners iterate ascending → sorted
			if tg.PreKnown {
				g.preKnown, g.preFlag = true, tg.PreFlag
			}
			g.structural = g.structural || tg.Structural
			g.newB = g.newB || tg.NewB
			g.mergeBs(tg.PostBs)
			for _, id := range tg.Inserted {
				if !g.inserted[id] {
					g.inserted[id] = true
					g.insertedOrder = append(g.insertedOrder, id)
				}
			}
			for k, id := range tg.Deleted {
				if tg.DeletedWasInV[k] {
					removes = append(removes, mark{id, tg.Rule})
				}
			}
		}
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].comp.Idx != groups[j].comp.Idx {
			return groups[i].comp.Idx < groups[j].comp.Idx
		}
		return bytes.Compare(groups[i].x[:], groups[j].x[:]) < 0
	})

	// Phase B: decide what each group needs. L is the combined local
	// distinct-B count across the touching owners (2 means ≥ 2).
	for _, g := range groups {
		L := len(g.allBs)
		switch {
		case !g.structural:
			// No B-class appeared or disappeared anywhere: the group's
			// distinct-B set — hence its flag — is unchanged. No wire.
			g.postFlag, g.decided = g.preFlag, true
		case sys.localCheck[g.comp.ID]:
			// Locally checkable rule: the whole group is co-located at
			// its owner, so the owners' combined evidence IS the global
			// answer. No wire.
			g.postFlag, g.decided = L >= 2, true
		case g.preKnown && g.preFlag && L >= 2:
			// Still ≥ 2 distinct B values locally and the group was
			// already violating: every class anywhere is already
			// flagged. No wire.
			g.postFlag, g.decided = true, true
		case g.preKnown && !g.preFlag && !g.newB:
			// Only deletions in a non-violating group: the global
			// distinct-B count can only have shrunk below one. No wire.
			g.postFlag, g.decided = false, true
		case L >= 2:
			// Local proof of ≥ 2 distinct B values, but the group was
			// not known violating: remote classes must be promoted.
			g.postFlag, g.decided, g.needProbe = true, true, true
		default:
			// The owners alone cannot decide: survey the peers.
			g.needProbe = true
		}
	}

	// Phase C: the probe round, relayed. Each probing group's designated
	// owner forwards its evidence to the wave's relay site (one message
	// per owner per wave), and the relay runs one probe fan-out for all
	// groups at once: one envelope per (relay, site) per wave, O(n)
	// messages regardless of |∆D| or how many owners touched the batch.
	// Decided items are promote orders; undecided ones are surveys that
	// still promote inline whenever the receiver can prove ≥ 2 distinct
	// B values. The relay rotates deterministically over the wave's
	// probing owners (sys.waveSeq counts waves), so sustained traffic
	// spreads the aggregation load across sites instead of funneling
	// every batch through one of them.
	probing := make(map[network.SiteID]struct{})
	for _, g := range groups {
		if g.needProbe {
			probing[g.owners[0]] = struct{}{}
		}
	}
	relay := network.SiteID(-1)
	if probingOwners := network.SortedSites(probing); len(probingOwners) > 0 {
		relay = probingOwners[sys.waveSeq%len(probingOwners)]
	}
	sys.waveSeq++
	var fwdEnv network.Coalescer[probeGroupItem]
	probeEnv := &network.Coalescer[probeGroupItem]{}
	probeRefs := make(map[network.SiteID][]*hGroup)
	for _, g := range groups {
		if !g.needProbe {
			continue
		}
		item := probeGroupItem{Rule: g.comp.ID, X: g.xref, Bs: g.allBs, Decided: g.decided}
		if o := g.owners[0]; o != relay {
			fwdEnv.Add(o, item)
		}
		// Probe every site that may hold classes of the group: the
		// non-excluded sites minus the touching owners (whose evidence
		// is already aggregated; they settle below). The relay probes
		// itself same-site when it is not an owner — local computation.
		ex := sys.excluded[g.comp.ID]
		for i := range sys.sites {
			id := network.SiteID(i)
			if ex[i] || g.ownedBy(id) {
				continue
			}
			probeEnv.Add(id, item)
			probeRefs[id] = append(probeRefs[id], g)
		}
	}
	// Forward hop: evidence travels owner → relay concurrently (the
	// relay's own groups need no hop). Fire-and-forget; the driver
	// already holds the aggregate, the message is the wire cost a real
	// aggregation pays.
	fwdSites := fwdEnv.Sites()
	err = sys.cluster.Fanout(len(fwdSites), network.FanoutOpts{}, func(i int) error {
		o := fwdSites[i]
		return sys.send(o, relay, "h.forwardGroup", forwardGroupReq{Items: fwdEnv.Items(o)}, nil)
	})
	if err != nil {
		return err
	}
	if !probeEnv.Empty() {
		sites, resps, err := network.GatherCoalesced[probeGroupItem, probeGroupReq, probeGroupResp](
			sys.cluster, sys.send, relay, "h.probeGroup", probeEnv,
			func(_ network.SiteID, items []probeGroupItem) probeGroupReq { return probeGroupReq{Items: items} },
			network.FanoutOpts{})
		if err != nil {
			return err
		}
		for si, site := range sites {
			if len(resps[si].Items) != probeEnv.Len(site) {
				return errResponseShape("h.probeGroup", site)
			}
			for k, ir := range resps[si].Items {
				g := probeRefs[site][k]
				for _, id := range ir.Added {
					if !g.inserted[id] {
						adds = append(adds, mark{id, g.comp.ID})
					}
				}
				if !g.decided {
					g.mergeBs(ir.Bs)
					g.remoteSites = append(g.remoteSites, site)
					g.remoteHas = append(g.remoteHas, ir.HasClasses)
					g.remoteFlag = append(g.remoteFlag, ir.Flag)
					g.remotePromoted = append(g.remotePromoted, ir.Promoted)
				}
			}
		}
	}
	for _, g := range groups {
		if !g.decided {
			g.postFlag = len(g.allBs) >= 2
			g.decided = true
		}
	}

	// Phase D: settle. Same-site at every touching owner (new classes get
	// their flag, demotes/promotes flip survivors), plus one envelope per
	// (relay, site) for remote corrections — in practice the demote
	// round, since promotions already happened inline.
	settleEnv := &network.Coalescer[settleGroupItem]{}
	settleRefs := make(map[network.SiteID][]*hGroup)
	addSettle := func(to network.SiteID, g *hGroup) {
		settleEnv.Add(to, settleGroupItem{Rule: g.comp.ID, X: g.xref, Flag: g.postFlag})
		settleRefs[to] = append(settleRefs[to], g)
	}
	for _, g := range groups {
		for _, o := range g.owners {
			addSettle(o, g) // same-site from the owner itself: unmetered
		}
		for ri, site := range g.remoteSites {
			if g.remoteHas[ri] && !g.remotePromoted[ri] && g.remoteFlag[ri] != g.postFlag {
				addSettle(site, g)
			}
		}
	}
	if !settleEnv.Empty() {
		sites := settleEnv.Sites()
		resps := make([]settleGroupResp, len(sites))
		err := sys.cluster.Fanout(len(sites), network.FanoutOpts{}, func(i int) error {
			to := sites[i]
			from := to // owner settles are the site's own local work
			if !allOwnerItems(settleRefs[to], to) {
				from = relay // demote orders travel from the relay
			}
			return sys.send(from, to, "h.settleGroup", settleGroupReq{Items: settleEnv.Items(to)}, &resps[i])
		})
		if err != nil {
			return err
		}
		for si, site := range sites {
			if len(resps[si].Items) != settleEnv.Len(site) {
				return errResponseShape("h.settleGroup", site)
			}
			for k, ir := range resps[si].Items {
				g := settleRefs[site][k]
				for _, id := range ir.Added {
					if !g.inserted[id] {
						adds = append(adds, mark{id, g.comp.ID})
					}
				}
				for _, id := range ir.Removed {
					if !g.inserted[id] {
						removes = append(removes, mark{id, g.comp.ID})
					}
				}
			}
		}
	}

	// Inserted tuples enter V exactly when their group ends up violating.
	for _, g := range groups {
		if !g.postFlag {
			continue
		}
		for _, id := range g.insertedOrder {
			adds = append(adds, mark{id, g.comp.ID})
		}
	}

	for _, m := range removes {
		delta.Remove(relation.TupleID(m.id), m.rule)
	}
	for _, m := range adds {
		delta.Add(relation.TupleID(m.id), m.rule)
	}
	return nil
}
