package horizontal

import (
	"fmt"

	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/xerr"
)

// Options configures a horizontal detection system.
type Options struct {
	// DisableMD5 ships raw X values instead of 128-bit MD5 codes as the
	// group keys of probe and settle items, turning §6's optimization off
	// (for the shipment ablation).
	DisableMD5 bool
	// NoIndexes loads the fragments only; the system serves batHor
	// (BatchDetect) but rejects Apply.
	NoIndexes bool
	// Transport, when non-nil, is a state-hosting transport (TCP sited
	// deployment): it is installed before seeding, so the initial
	// database is loaded into the remote sites and the local site
	// replicas stay empty.
	Transport network.Transport
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
	sites   []*site

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

	// localCheck marks rules needing no shipment ever: constant rules
	// and variable rules with X_Fi ⊆ X for every fragment (§6 local
	// checking (1) and (2)(a)).
	localCheck map[string]bool
	// excluded[rule][site] marks fragments whose predicate contradicts
	// the rule's pattern constants: Fi ∧ Fφ unsatisfiable (§6 (2)(b)).
	excluded map[string][]bool

	useMD5    bool
	v         *cfd.Violations
	direct    bool
	noIndexes bool
}

// seedChunk is how many tuples of the initial relation one seeding round
// carries — one wave of the batch-grouped protocol in direct (same-site,
// unmetered) mode — so cold start costs O(rows / seedChunk) calls per
// site.
const seedChunk = batchWaveSize

// NewSystem partitions rel under scheme, builds the per-site indices for
// rules, seeds them and computes the initial V(Σ, D). Traffic meters are
// zero on return.
func NewSystem(rel *relation.Relation, scheme *partition.HorizontalScheme, rules []cfd.CFD, opts Options) (*System, error) {
	if err := cfd.ValidateAll(rel.Schema, rules); err != nil {
		return nil, err
	}
	sys := &System{
		schema:     rel.Schema,
		scheme:     scheme,
		rules:      append([]cfd.CFD(nil), rules...),
		localCheck: make(map[string]bool),
		excluded:   make(map[string][]bool),
		useMD5:     !opts.DisableMD5,
		v:          cfd.NewViolations(),
	}
	sys.comp = cfd.CompileAll(rel.Schema, sys.rules)
	sys.compByID = make(map[string]*cfd.Compiled, len(sys.comp))
	for i := range sys.comp {
		sys.compByID[sys.comp[i].ID] = &sys.comp[i]
	}
	sys.v.InternRules(sys.rules)
	n := scheme.NumSites()
	sys.cluster = network.NewCluster(n)
	for i := 0; i < n; i++ {
		st := newSite(network.SiteID(i), rel.Schema, sys.comp)
		sys.sites = append(sys.sites, st)
		st.register(sys.cluster)
	}
	if opts.Transport != nil {
		sys.cluster.UseRemoteTransport(opts.Transport)
	}
	for i := range sys.rules {
		r := &sys.rules[i]
		sys.localCheck[r.ID] = r.IsConstant() || scheme.LocallyCheckable(r)
		ex := make([]bool, n)
		attrs, vals := r.ConstantLHS()
		for si, p := range scheme.Preds {
			ex[si] = p.ExcludesConstants(attrs, vals)
		}
		sys.excluded[r.ID] = ex
	}

	sys.noIndexes = opts.NoIndexes
	if !opts.SkipSeed {
		sys.direct = true
		var seedErr error
		if sys.noIndexes {
			seedErr = sys.seedFragments(rel)
		} else {
			seedErr = rel.EachInsertChunk(seedChunk, func(ins relation.UpdateList) error {
				_, err := sys.applyCoalesced(ins)
				return err
			})
			// Seeding is not a protocol round: the relay rotation starts
			// from wave zero, as it did when seeding never ran a wave.
			sys.waveSeq = 0
		}
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

// seedFragments loads rel into the owning fragments without building
// indices (the NoIndexes mode measuring the batch baseline): tuples are
// routed to their owner once, then each site ingests its share in
// parallel with the others.
func (sys *System) seedFragments(rel *relation.Relation) error {
	perSite := make([][]applyReq, len(sys.sites))
	var routeErr error
	rel.Each(func(t relation.Tuple) bool {
		owner, err := sys.scheme.SiteFor(sys.schema, t)
		if err != nil {
			routeErr = err
			return false
		}
		perSite[owner] = append(perSite[owner], applyReq{Op: OpInsert, ID: int64(t.ID), Values: t.Values})
		return true
	})
	if routeErr != nil {
		return routeErr
	}
	return sys.cluster.Fanout(len(perSite), network.FanoutOpts{}, func(i int) error {
		site := network.SiteID(i)
		for _, req := range perSite[i] {
			if err := sys.send(site, site, "h.apply", req, nil); err != nil {
				return err
			}
		}
		return nil
	})
}

// Cluster exposes the message fabric.
func (sys *System) Cluster() *network.Cluster { return sys.cluster }

// Violations returns the maintained violation set V(Σ, D).
func (sys *System) Violations() *cfd.Violations { return sys.v }

// Rules returns the rule set.
func (sys *System) Rules() []cfd.CFD { return sys.rules }

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

// Apply runs incHor (Fig. 8): normalizes ∆D once, applies it through
// the batch-grouped protocol (coalesce.go), maintains V and returns ∆V. A
// per-update round is a batch of one.
func (sys *System) Apply(updates relation.UpdateList) (*cfd.Delta, error) {
	if sys.noIndexes {
		return nil, fmt.Errorf("horizontal: cannot apply incremental updates: %w", xerr.ErrNoIndexes)
	}
	norm := updates.NormalizeInto(sys.normScratch)
	if len(norm) != len(updates) {
		sys.normScratch = norm // grown scratch: keep the backing array
	}
	return sys.applyCoalesced(norm)
}

// participants returns every site whose predicate can hold tuples
// matching the rule's pattern constants, in site order.
func (sys *System) participants(rule string) []network.SiteID {
	ex := sys.excluded[rule]
	out := make([]network.SiteID, 0, len(sys.sites))
	for i := range sys.sites {
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
		if sys.localCheck[r.ID] {
			targets := sys.participants(r.ID)
			resps := make([]localDetectResp, len(targets))
			err := sys.cluster.Fanout(len(targets), network.FanoutOpts{}, func(i int) error {
				// Locally checkable rules need no shipment: each site
				// detects against its own fragment (same-site call).
				return sys.cluster.Call(targets[i], targets[i], "h.localDetect", localDetectReq{Rule: r.ID}, &resps[i])
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
		targets := sys.participants(r.ID)
		resps, err := gather[shipMatchingReq, shipMatchingResp](sys, coord, "h.shipMatching", targets, func(network.SiteID) shipMatchingReq {
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
