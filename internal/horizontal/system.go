package horizontal

import (
	"fmt"

	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/relation"
)

// Options configures a horizontal detection system.
type Options struct {
	// DisableMD5 ships raw X values instead of 128-bit MD5 codes as the
	// group keys of probe and settle items, turning §6's optimization off
	// (for the shipment ablation).
	DisableMD5 bool
	// SkipSeed builds the system without the seeding pass: no site
	// loads, no initial V. A resumed driver uses it when the sites
	// already hold their fragments (recovered from checkpoints) and V is
	// re-derived locally — see AdoptViolations.
	SkipSeed bool
}

// System is a horizontally partitioned database with incremental CFD
// violation detection (incHor) and the batHor baseline.
type System struct {
	schema *relation.Schema
	scheme *partition.HorizontalScheme
	rules  []cfd.CFD
	// comp is the schema-compiled form of rules, index-aligned; the
	// driver's hot paths run on it.
	comp []cfd.Compiled

	cluster *network.Cluster

	// compByID resolves a rule id to its compiled form (the batch-grouped
	// driver aggregates site responses keyed by rule id).
	compByID map[string]*cfd.Compiled

	// normScratch backs the per-batch normalized update slice, reused
	// across Apply calls so normalization happens exactly once per
	// batch and allocates nothing in steady state.
	normScratch relation.UpdateList
	// waveSeq counts the batch-grouped protocol's waves; the relay role
	// rotates on it (see coalesce.go).
	waveSeq int
	// scratch is the batch-grouped driver's per-wave state (coalesce.go),
	// nil until a wave needs it and after a large one.
	scratch *waveScratch

	// facts is §6's pre-analysis of each rule, indexed by Compiled.Idx.
	facts []ruleFacts

	useMD5 bool
	v      *cfd.Violations
	direct bool
}

// ruleFacts is what the driver knows of one rule before any tuple.
type ruleFacts struct {
	// local marks a rule needing no shipment ever: a constant rule, or a
	// variable rule with X_Fi ⊆ X for every fragment (§6 local checking
	// (1) and (2)(a)).
	local bool
	// excluded[site] marks a fragment whose predicate contradicts the
	// rule's pattern constants: Fi ∧ Fφ unsatisfiable (§6 (2)(b)).
	excluded []bool
}

// setRules puts all in force in the driver: the compiled forms, their
// id index and each rule's §6 facts. NewSystem, AddRules and RemoveRules
// all come through here; rule validity is the caller's to check.
func (sys *System) setRules(all []cfd.CFD) {
	sys.rules = all
	sys.comp = cfd.CompileAll(sys.schema, all)
	sys.compByID = make(map[string]*cfd.Compiled, len(all))
	sys.facts = make([]ruleFacts, len(all))
	for i := range all {
		r := &all[i]
		sys.compByID[r.ID] = &sys.comp[i]
		f := &sys.facts[i]
		f.local = r.IsConstant() || sys.scheme.LocallyCheckable(r)
		f.excluded = make([]bool, len(sys.scheme.Preds))
		attrs, vals := r.ConstantLHS()
		for si, p := range sys.scheme.Preds {
			f.excluded[si] = p.ExcludesConstants(attrs, vals)
		}
	}
}

// seedChunk is how many tuples of the initial relation one seeding round
// carries — one wave of the batch-grouped protocol in direct (same-site,
// unmetered) mode — so cold start costs O(rows / seedChunk) calls per
// site.
const seedChunk = batchWaveSize

// NewSystem builds the driver over c, whose sites hold rules and are
// empty — hosted on c itself (HostSiteState) or behind its remote
// transport — then seeds them with rel partitioned under scheme and
// computes the initial V(Σ, D). Traffic meters are zero on return.
func NewSystem(c *network.Cluster, rel *relation.Relation, scheme *partition.HorizontalScheme, rules []cfd.CFD, opts Options) (*System, error) {
	if err := cfd.ValidateAll(rel.Schema, rules); err != nil {
		return nil, err
	}
	if c.NumSites() != scheme.NumSites() {
		return nil, fmt.Errorf("horizontal: %d-site scheme on a %d-site cluster", scheme.NumSites(), c.NumSites())
	}
	sys := &System{
		schema:  rel.Schema,
		scheme:  scheme,
		cluster: c,
		useMD5:  !opts.DisableMD5,
		v:       cfd.NewViolations(),
	}
	sys.setRules(append([]cfd.CFD(nil), rules...))
	sys.v.InternRules(sys.rules)

	if !opts.SkipSeed {
		sys.direct = true
		seedErr := rel.EachInsertChunk(seedChunk, sys.applyCoalesced)
		// Seeding is not a protocol round: the relay rotation starts
		// from wave zero, as it did when seeding never ran a wave.
		sys.waveSeq = 0
		sys.direct = false
		if seedErr != nil {
			return nil, seedErr
		}
	}
	sys.cluster.ResetStats()
	return sys, nil
}

// AdoptViolations replaces the maintained violation set — the resume
// path's seam. A restarted driver rebuilds the system with SkipSeed
// (sites already hold their checkpointed fragments) and installs the V
// it re-derived from its journaled mirror. The rules must already be
// interned; the set is re-interned here against this system's rules.
func (sys *System) AdoptViolations(v *cfd.Violations) {
	v.InternRules(sys.rules)
	sys.v = v
}

// ProtocolCursor returns the batch-grouped protocol's wave counter. The
// relay role rotates on it, so identical cursors mean identical future
// envelopes — the session journals it per round and restores it with
// SetProtocolCursor on resume, keeping a restarted driver's traffic
// bit-identical to a never-crashed one's.
func (sys *System) ProtocolCursor() uint64 { return uint64(sys.waveSeq) }

// SetProtocolCursor restores the wave counter (see ProtocolCursor).
func (sys *System) SetProtocolCursor(c uint64) { sys.waveSeq = int(c) }

// Cluster exposes the message fabric.
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

// via is send as the network package's gathers take it.
func via[Req, Resp any](sys *System) network.CallFunc[Req, Resp] {
	return func(l *network.Lane, from, to network.SiteID, m *network.Method[Req, Resp], req Req) (Resp, error) {
		return send(sys, l, from, to, m, req)
	}
}

// gather is network.GatherVia over send, so seed-mode calls stay
// same-site and unmetered.
func gather[Req, Resp any](sys *System, from network.SiteID, m *network.Method[Req, Resp], targets []network.SiteID, req func(network.SiteID) Req) ([]Resp, error) {
	return network.GatherVia(sys.cluster, via[Req, Resp](sys), from, m, targets, req)
}

// Apply runs incHor (Fig. 8): normalizes ∆D once, applies it through
// the batch-grouped protocol (coalesce.go), maintains V and returns ∆V,
// the change from V before the batch to V after it. A per-update round
// is a batch of one.
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

// participants returns every site whose predicate can hold tuples
// matching rule i's pattern constants, in site order.
func (sys *System) participants(i int) []network.SiteID {
	ex := sys.facts[i].excluded
	out := make([]network.SiteID, 0, len(ex))
	for i := range ex {
		if !ex[i] {
			out = append(out, network.SiteID(i))
		}
	}
	return out
}

func errResponseShape(method string, site network.SiteID) error {
	return fmt.Errorf("horizontal: %s: malformed batch response from site %d", method, site)
}

// BatchDetect is batHor: for every rule, pattern-matching (partial) tuples
// are shipped to a per-rule coordinator that checks the rule centrally —
// except constant and locally checkable rules, which each site checks
// itself with no shipment (the pre-checks of Fan et al., ICDE 2010).
func (sys *System) BatchDetect() (*cfd.Violations, error) {
	v := cfd.NewViolations()
	v.InternRules(sys.rules)
	// Coordinator grouping state, reused across rules.
	type group struct {
		members   []int64
		firstB    string
		distinctB int
	}
	groups := make(map[string]*group)
	var keyBuf []byte
	for i := range sys.rules {
		r := &sys.rules[i]
		if sys.facts[i].local {
			targets := sys.participants(i)
			resps := make([]localDetectResp, len(targets))
			err := network.Fanout(sys.cluster, len(targets), nil, func(_ *struct{}, l *network.Lane, i int) error {
				// Locally checkable rules need no shipment: each site
				// detects against its own fragment (same-site call).
				var err error
				resps[i], err = network.Call(l, targets[i], targets[i], mLocalDetect, localDetectReq{Rule: r.ID})
				return err
			})
			if err != nil {
				return nil, err
			}
			for _, resp := range resps {
				for _, id := range resp.IDs {
					v.Add(relation.TupleID(id), r.ID)
				}
			}
			continue
		}

		// Like batVer, batHor uses one designated coordinator site; its
		// assembly work is what degrades the batch baseline's scaleup.
		coord := network.SiteID(0)
		clear(groups)
		addRow := func(row matchRow) {
			// The coordinator evaluates tp[X] on the shipped projection.
			for li := range r.LHS {
				if !cfd.MatchValue(row.X[li], r.LHSPattern[li]) {
					return
				}
			}
			keyBuf = relation.AppendKeyVals(keyBuf[:0], row.X)
			g, ok := groups[string(keyBuf)]
			if !ok {
				groups[string(keyBuf)] = &group{members: []int64{row.ID}, firstB: row.B, distinctB: 1}
				return
			}
			if g.distinctB == 1 && row.B != g.firstB {
				g.distinctB = 2
			}
			g.members = append(g.members, row.ID)
		}
		targets := sys.participants(i)
		resps, err := gather(sys, coord, mShipMatching, targets, func(network.SiteID) shipMatchingReq {
			return shipMatchingReq{Rule: r.ID}
		})
		if err != nil {
			return nil, err
		}
		for _, resp := range resps {
			for _, row := range resp.Rows {
				addRow(row)
			}
		}
		for _, g := range groups {
			if g.distinctB > 1 {
				for _, id := range g.members {
					v.Add(relation.TupleID(id), r.ID)
				}
			}
		}
	}
	return v, nil
}
