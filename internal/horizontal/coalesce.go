package horizontal

import (
	"bytes"
	"slices"

	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/relation"
)

// This file is the incHor driver — the one protocol Apply and seeding
// run; a per-update round is a wave of one. Rule seeding does not run it:
// AddRules sends h.seedRules and then h.settleGroup (rules.go). One wave
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
//	D. settle: final flags are pinned — same-site at a touching owner
//	   only where its reply shows a class the final flag flips, and one
//	   envelope per (relay, peer) for the demote round.
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

	owners            []groupOwner // ascending by site
	preKnown, preFlag bool
	structural, newB  bool
	allBs             [][]byte // distinct B digests known so far, capped at 2
	// inserted lists the wave's insertions into the group, first seen
	// first; a wave holds at most batchWaveSize updates, so membership is
	// a scan.
	inserted          []int64
	postFlag, decided bool
	needProbe         bool

	// remote is the survey evidence of the probed sites.
	remote []remoteAnswer
}

// groupOwner is one owner that touched a group, with the flags of the
// classes its local phase left (touchedGroup.AnyIn, AnyOut).
type groupOwner struct {
	site          network.SiteID
	anyIn, anyOut bool
}

// remoteAnswer is one probed site's answer for a group.
type remoteAnswer struct {
	site                network.SiteID
	has, flag, promoted bool
}

// reset empties g for another wave, keeping its slices' backing arrays
// and dropping every reference into the wave it served.
func (g *hGroup) reset() {
	clear(g.allBs)
	*g = hGroup{owners: g.owners[:0], allBs: g.allBs[:0], inserted: g.inserted[:0], remote: g.remote[:0]}
}

func (g *hGroup) ownedBy(s network.SiteID) bool {
	return slices.ContainsFunc(g.owners, func(o groupOwner) bool { return o.site == s })
}

func (g *hGroup) wasInserted(id int64) bool { return slices.Contains(g.inserted, id) }

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

// mark is one pending mark change of V.
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

// waveScratch is the per-wave state of applyWaveCoalesced, kept on the
// System so a stream of small waves reuses its tables. end drops every
// reference into the wave it served — replies, digests, update values —
// and keeps only capacity; a wave of more than scratchKeepWave updates (a
// seeding wave) releases the scratch instead, so its high-water tables
// are not carried into the steady state.
type waveScratch struct {
	perOwner   [][]batchApplyItem // by site
	owners     []network.SiteID
	applyResps []batchApplyResp // aligned with owners

	byKey  map[waveKey]*hGroup
	slab   []hGroup // backs every group of the wave; sized before use
	groups []*hGroup

	removes, adds []mark

	probing               []bool // by site: owns a group that probes
	fwd, probe            network.Coalescer[probeGroupItem]
	settle                network.Coalescer[settleGroupItem]
	probeRefs, settleRefs [][]*hGroup // by site, aligned with the envelopes
	settleResps           []settleGroupResp

	// relay is the wave's probe relay (-1: none), and sites the
	// destinations of the fan-out round running: the state the round
	// bodies read, as they capture nothing.
	relay network.SiteID
	sites []network.SiteID
}

// waveKey names a touched (rule, X) group within a wave.
type waveKey struct {
	comp *cfd.Compiled
	x    code
}

const scratchKeepWave = 64

func newWaveScratch(sites int) *waveScratch {
	return &waveScratch{
		perOwner:   make([][]batchApplyItem, sites),
		byKey:      make(map[waveKey]*hGroup),
		probing:    make([]bool, sites),
		probeRefs:  make([][]*hGroup, sites),
		settleRefs: make([][]*hGroup, sites),
	}
}

// group returns the wave's aggregate of (comp, x), taking a new one off
// the slab at first sight.
func (sc *waveScratch) group(comp *cfd.Compiled, x code) (g *hGroup, isNew bool) {
	k := waveKey{comp, x}
	if g, ok := sc.byKey[k]; ok {
		return g, false
	}
	sc.slab = sc.slab[:len(sc.slab)+1]
	g = &sc.slab[len(sc.slab)-1]
	g.comp, g.x = comp, x
	sc.byKey[k] = g
	sc.groups = append(sc.groups, g)
	return g, true
}

// end empties the scratch after a wave, keeping its capacity.
func (sc *waveScratch) end() {
	for i := range sc.perOwner {
		clear(sc.perOwner[i])
		clear(sc.probeRefs[i])
		clear(sc.settleRefs[i])
		sc.perOwner[i], sc.probeRefs[i], sc.settleRefs[i] = sc.perOwner[i][:0], sc.probeRefs[i][:0], sc.settleRefs[i][:0]
	}
	for i := range sc.slab {
		sc.slab[i].reset()
	}
	clear(sc.byKey)
	clear(sc.applyResps)
	clear(sc.settleResps)
	clear(sc.groups)
	clear(sc.removes)
	clear(sc.adds)
	sc.owners, sc.applyResps, sc.settleResps = sc.owners[:0], sc.applyResps[:0], sc.settleResps[:0]
	sc.slab, sc.groups, sc.removes, sc.adds = sc.slab[:0], sc.groups[:0], sc.removes[:0], sc.adds[:0]
	sc.fwd.Reset()
	sc.probe.Reset()
	sc.settle.Reset()
}

// applyCoalesced runs one normalized batch through the batch-grouped
// protocol wave by wave, maintaining V.
func (sys *System) applyCoalesced(norm relation.UpdateList) error {
	for start := 0; start < len(norm); start += batchWaveSize {
		end := start + batchWaveSize
		if end > len(norm) {
			end = len(norm)
		}
		if err := sys.applyWaveCoalesced(norm[start:end]); err != nil {
			return err
		}
	}
	return nil
}

// applyWaveCoalesced runs one wave through the grouped phases and marks
// its changes in V, removals before additions, so a modification lands
// as its updates order it.
func (sys *System) applyWaveCoalesced(norm relation.UpdateList) error {
	if len(norm) == 0 {
		return nil
	}
	sc := sys.scratch
	if sc == nil {
		sc = newWaveScratch(sys.cluster.NumSites())
		sys.scratch = sc
	}
	defer func() {
		if len(norm) > scratchKeepWave {
			sys.scratch = nil
		} else {
			sc.end()
		}
	}()

	// Phase A: route every update to its owner, one local-phase call per
	// owning site (same-site, unmetered — ∆D delivery is not detection
	// traffic).
	for _, u := range norm {
		owner, err := sys.scheme.SiteFor(sys.schema, u.Tuple)
		if err != nil {
			return err
		}
		op := OpInsert
		if u.Kind == relation.Delete {
			op = OpDelete
		}
		sc.perOwner[owner] = append(sc.perOwner[owner], batchApplyItem{Op: op, ID: int64(u.Tuple.ID), Values: u.Tuple.Values})
	}
	for i := range sc.perOwner {
		if len(sc.perOwner[i]) > 0 {
			sc.owners = append(sc.owners, network.SiteID(i))
		}
	}
	owners := sc.owners
	sc.applyResps = slices.Grow(sc.applyResps, len(owners))[:len(owners)]
	applyResps := sc.applyResps
	err := network.Fanout(sys.cluster, len(owners), sys, func(sys *System, l *network.Lane, i int) error {
		sc := sys.scratch
		o := sc.owners[i]
		var err error
		sc.applyResps[i], err = send(sys, l, o, o, mBatchApply, batchApplyReq{Updates: sc.perOwner[o], RawKeys: !sys.useMD5})
		return err
	})
	if err != nil {
		return err
	}

	// Aggregate: constant-rule marks emit directly; touched groups merge
	// across owners. Removals reach V before additions at the end, so a
	// modification (delete + insert of one id) lands in update order.
	total := 0
	for i := range applyResps {
		total += len(applyResps[i].Groups)
	}
	if cap(sc.slab) < total {
		// Grow over the kept groups, so their slices' arrays stay.
		sc.slab = append(sc.slab[:cap(sc.slab)], make([]hGroup, total-cap(sc.slab))...)[:0]
	}
	for oi, o := range owners {
		resp := &applyResps[oi]
		for _, c := range resp.Consts {
			if c.Add {
				sc.adds = append(sc.adds, mark{c.ID, c.Rule})
			} else {
				sc.removes = append(sc.removes, mark{c.ID, c.Rule})
			}
		}
		for ti := range resp.Groups {
			tg := &resp.Groups[ti]
			comp := sys.compByID[tg.Rule]
			if comp == nil || len(tg.X) != codeLen || len(tg.DeletedWasInV) != len(tg.Deleted) {
				return errResponseShape("h.batchApply", o)
			}
			g, isNew := sc.group(comp, code(tg.X))
			if isNew {
				if sys.useMD5 {
					g.xref = keyRef{Digest: tg.X}
				} else {
					g.xref = keyRef{Raw: tg.XRaw}
				}
			}
			g.owners = append(g.owners, groupOwner{o, tg.AnyIn, tg.AnyOut}) // owners iterate ascending → sorted
			if tg.PreKnown {
				g.preKnown, g.preFlag = true, tg.PreFlag
			}
			g.structural = g.structural || tg.Structural
			g.newB = g.newB || tg.NewB
			g.mergeBs(tg.PostBs)
			for _, id := range tg.Inserted {
				if !g.wasInserted(id) {
					g.inserted = append(g.inserted, id)
				}
			}
			for k, id := range tg.Deleted {
				if tg.DeletedWasInV[k] {
					sc.removes = append(sc.removes, mark{id, tg.Rule})
				}
			}
		}
	}
	groups := sc.groups
	slices.SortFunc(groups, func(a, b *hGroup) int {
		if a.comp.Idx != b.comp.Idx {
			return int(a.comp.Idx) - int(b.comp.Idx)
		}
		return bytes.Compare(a.x[:], b.x[:])
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
		case sys.facts[g.comp.Idx].local:
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
	probing := 0
	for _, g := range groups {
		if g.needProbe && !sc.probing[g.owners[0].site] {
			sc.probing[g.owners[0].site] = true
			probing++
		}
	}
	relay := network.SiteID(-1)
	if probing > 0 {
		nth := sys.waveSeq % probing // the relay is the nth probing owner by site
		for i, p := range sc.probing {
			if p && nth == 0 {
				relay = network.SiteID(i)
				break
			}
			if p {
				nth--
			}
		}
	}
	clear(sc.probing)
	sys.waveSeq++
	sc.relay = relay
	for _, g := range groups {
		if !g.needProbe {
			continue
		}
		item := probeGroupItem{Rule: g.comp.ID, X: g.xref, Bs: g.allBs, Decided: g.decided}
		if o := g.owners[0].site; o != relay {
			sc.fwd.Add(o, item)
		}
		// Probe every site that may hold classes of the group: the
		// non-excluded sites minus the touching owners (whose evidence
		// is already aggregated; they settle below). The relay probes
		// itself same-site when it is not an owner — local computation.
		ex := sys.facts[g.comp.Idx].excluded
		for i := range ex {
			id := network.SiteID(i)
			if ex[i] || g.ownedBy(id) {
				continue
			}
			sc.probe.Add(id, item)
			sc.probeRefs[i] = append(sc.probeRefs[i], g)
		}
	}
	// Forward hop: evidence travels owner → relay concurrently (the
	// relay's own groups need no hop). Fire-and-forget; the driver
	// already holds the aggregate, the message is the wire cost a real
	// aggregation pays.
	sc.sites = sc.fwd.Sites()
	err = network.Fanout(sys.cluster, len(sc.sites), sys, func(sys *System, l *network.Lane, i int) error {
		sc := sys.scratch
		o := sc.sites[i]
		_, err := send(sys, l, o, sc.relay, mForwardGroup, forwardGroupReq{Items: sc.fwd.Items(o)})
		return err
	})
	if err != nil {
		return err
	}
	if !sc.probe.Empty() {
		sites, resps, err := network.GatherCoalesced(sys.cluster, via[probeGroupReq, probeGroupResp](sys), relay, mProbeGroup, &sc.probe,
			func(_ network.SiteID, items []probeGroupItem) probeGroupReq { return probeGroupReq{Items: items} })
		if err != nil {
			return err
		}
		for si, site := range sites {
			if len(resps[si].Items) != sc.probe.Len(site) {
				return errResponseShape("h.probeGroup", site)
			}
			for k, ir := range resps[si].Items {
				g := sc.probeRefs[site][k]
				for _, id := range ir.Added {
					if !g.wasInserted(id) {
						sc.adds = append(sc.adds, mark{id, g.comp.ID})
					}
				}
				if !g.decided {
					g.mergeBs(ir.Bs)
					g.remote = append(g.remote, remoteAnswer{site, ir.HasClasses, ir.Flag, ir.Promoted})
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

	// Phase D: settle. Same-site at a touching owner whose reply shows a
	// class the final flag flips (a new class to flag, survivors to
	// demote or promote) — owners are never probed, so their classes are
	// as they replied — plus one envelope per (relay, site) for remote
	// corrections: in practice the demote round, since promotions already
	// happened inline.
	addSettle := func(to network.SiteID, g *hGroup) {
		sc.settle.Add(to, settleGroupItem{Rule: g.comp.ID, X: g.xref, Flag: g.postFlag})
		sc.settleRefs[to] = append(sc.settleRefs[to], g)
	}
	for _, g := range groups {
		for _, o := range g.owners {
			if g.postFlag && o.anyOut || !g.postFlag && o.anyIn {
				addSettle(o.site, g) // same-site from the owner itself: unmetered
			}
		}
		for _, r := range g.remote {
			if r.has && !r.promoted && r.flag != g.postFlag {
				addSettle(r.site, g)
			}
		}
	}
	if !sc.settle.Empty() {
		sites := sc.settle.Sites()
		sc.sites = sites
		sc.settleResps = slices.Grow(sc.settleResps, len(sites))[:len(sites)]
		resps := sc.settleResps
		err := network.Fanout(sys.cluster, len(sites), sys, func(sys *System, l *network.Lane, i int) error {
			sc := sys.scratch
			to := sc.sites[i]
			from := to // owner settles are the site's own local work
			if !allOwnerItems(sc.settleRefs[to], to) {
				from = sc.relay // demote orders travel from the relay
			}
			var err error
			sc.settleResps[i], err = send(sys, l, from, to, mSettleGroup, settleGroupReq{Items: sc.settle.Items(to)})
			return err
		})
		if err != nil {
			return err
		}
		for si, site := range sites {
			if len(resps[si].Items) != sc.settle.Len(site) {
				return errResponseShape("h.settleGroup", site)
			}
			for k, ir := range resps[si].Items {
				g := sc.settleRefs[site][k]
				for _, id := range ir.Added {
					if !g.wasInserted(id) {
						sc.adds = append(sc.adds, mark{id, g.comp.ID})
					}
				}
				for _, id := range ir.Removed {
					if !g.wasInserted(id) {
						sc.removes = append(sc.removes, mark{id, g.comp.ID})
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
		for _, id := range g.inserted {
			sc.adds = append(sc.adds, mark{id, g.comp.ID})
		}
	}

	for _, m := range sc.removes {
		sys.v.Remove(relation.TupleID(m.id), m.rule)
	}
	for _, m := range sc.adds {
		sys.v.Add(relation.TupleID(m.id), m.rule)
	}
	return nil
}
