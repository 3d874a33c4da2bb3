package vertical

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/optimizer"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/workload"
	"repro/internal/xerr"
)

// The site handlers as a daemon exposes them: reached only through
// Cluster.Dispatch with bytes that may be anything. hostedTransport puts
// a driver in front of such sites without sockets, so a test can also
// record what a real round sends and rewrite what a site answers.

// hostedTransport hosts every site of a deployment the way sited does —
// its own plan copy, state touched only by Dispatch — in this process.
type hostedTransport struct {
	c     *network.Cluster
	sites []*HostedSite

	mu sync.Mutex
	// recorded holds the (method, payload) of every call while record is
	// set.
	record   bool
	recorded []sentCall
	// tamper, when set, rewrites a site's reply payload.
	tamper func(method string, resp []byte) []byte
}

type sentCall struct {
	method string
	data   []byte
}

func (h *hostedTransport) Invoke(to network.SiteID, method string, data []byte) ([]byte, error) {
	h.mu.Lock()
	if h.record {
		h.recorded = append(h.recorded, sentCall{method, data})
	}
	tamper := h.tamper
	h.mu.Unlock()
	resp, err := h.c.Dispatch(to, method, data)
	if err == nil && tamper != nil {
		resp = tamper(method, resp)
	}
	return resp, err
}

func (h *hostedTransport) Close() error { return nil }

// hostedSystem seeds rel into hosted sites and returns the driver with
// the transport between them.
func hostedSystem(t testing.TB, rel *relation.Relation, scheme *partition.VerticalScheme, rules []cfd.CFD) (*System, *hostedTransport) {
	t.Helper()
	plan, err := PlanFor(rules, scheme, Options{UseOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	planBytes, err := network.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	tr := &hostedTransport{c: network.NewCluster(scheme.NumSites)}
	for i := 0; i < scheme.NumSites; i++ {
		var own optimizer.Plan // as decoded from a hello
		if err := network.Unmarshal(planBytes, &own); err != nil {
			t.Fatal(err)
		}
		hs, err := HostSiteState(tr.c, network.SiteID(i), rel.Schema, scheme, &own, rules)
		if err != nil {
			t.Fatal(err)
		}
		tr.sites = append(tr.sites, hs)
	}
	sys, err := NewSystem(rel, scheme, rules, Options{Plan: plan, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	return sys, tr
}

// dispatchFixture is a small seeded deployment: enough rows for classes
// of more than one member, and a rule pool (the first 20 to start with,
// four to add) reaching past the generator's plain FDs into rules with
// pattern constants and constant rules.
func dispatchFixture(t testing.TB) (*workload.Generator, *relation.Relation, *partition.VerticalScheme, []cfd.CFD) {
	gen := workload.NewSized(workload.TPCH, 7, 800)
	rel := gen.Relation(24)
	return gen, rel, partition.RoundRobinVertical(rel.Schema, 3), gen.Rules(24)
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	data, err := network.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHandlersRefuseMalformedCalls: every wire-supplied node index, rule
// index, bitset length and padding bit, and a stale rule-set generation,
// is answered with an error naming site and method — the daemon neither
// panics nor changes state. At the parent commit the first case
// (v.batchDeliver with Node -3) killed the process in bufPut.
func TestHandlersRefuseMalformedCalls(t *testing.T) {
	_, rel, scheme, rules := dispatchFixture(t)
	sys, tr := hostedSystem(t, rel, scheme, rules[:20])
	s := tr.sites[0].st
	ids := []int64{int64(rel.IDs()[0]), int64(rel.IDs()[1])}
	nodes, rw := len(s.nodes), words(len(s.rules))
	here, elsewhere, variable := -1, -1, -1
	for n := range s.nodes {
		if s.nodes[n].here() && here < 0 {
			here = n
		} else if !s.nodes[n].here() && elsewhere < 0 {
			elsewhere = n
		}
	}
	for no, r := range s.rules {
		if !r.rule.IsConstant() {
			variable = no
		}
	}
	if here < 0 || elsewhere < 0 || variable < 0 || len(s.rules)%64 == 0 {
		t.Fatalf("fixture: site 0 hosts node %d, not %d, variable rule %d of %d", here, elsewhere, variable, len(s.rules))
	}
	noRules := make([]uint64, 2*rw)
	ruleBit := func(no int) []uint64 {
		rows := make([]uint64, 2*rw)
		bitset(rows).set(no)
		return rows
	}
	sub := func(edit func(*optimizer.Plan)) *optimizer.Plan {
		p := &optimizer.Plan{
			Nodes:    []optimizer.Node{{ID: 0, Kind: optimizer.Base, Attrs: []string{s.schema.Attrs[0]}, Site: 0}},
			Bindings: map[string]optimizer.RuleBinding{"fresh": {RuleID: "fresh", XNode: 0, BNode: 0, IDXSite: 0}},
		}
		edit(p)
		return p
	}
	fresh := cfd.CFD{ID: "fresh", LHS: []string{s.schema.Attrs[0]}, LHSPattern: []string{cfd.Wildcard}, RHS: s.schema.Attrs[1], RHSPattern: cfd.Wildcard}

	cases := []struct {
		name, method string
		req          any
		want         error // nil: any error
	}{
		{"deliver to node -3", "v.batchDeliver", batchDeliverReq{Items: []batchDeliverItem{{ID: 1, Node: 0, Eq: 1}, {ID: 1<<63 - 1, Node: -3, Eq: -1 << 63}}}, nil},
		{"deliver past the plan", "v.batchDeliver", batchDeliverReq{Items: []batchDeliverItem{{ID: 1, Node: nodes, Eq: 1}}}, nil},

		{"resolve past the plan", "v.batchResolve", batchResolveReq{IDs: ids, Ins: []uint64{3}, Nodes: []int{nodes}, Members: []uint64{3}}, nil},
		{"resolve node -1", "v.batchResolve", batchResolveReq{IDs: ids, Ins: []uint64{3}, Nodes: []int{-1}, Members: []uint64{3}}, nil},
		{"resolve another site's node", "v.batchResolve", batchResolveReq{IDs: ids, Ins: []uint64{3}, Nodes: []int{elsewhere}, Members: []uint64{3}}, nil},
		{"resolve: member rows short", "v.batchResolve", batchResolveReq{IDs: ids, Ins: []uint64{3}, Nodes: []int{here, here}, Members: []uint64{3}}, nil},
		{"resolve: member beyond the ids", "v.batchResolve", batchResolveReq{IDs: ids, Ins: []uint64{3}, Nodes: []int{here}, Members: []uint64{4}}, nil},
		{"resolve: no op bitset", "v.batchResolve", batchResolveReq{IDs: ids, Nodes: []int{here}, Members: []uint64{3}}, nil},
		{"resolve: op bit beyond the ids", "v.batchResolve", batchResolveReq{IDs: ids, Ins: []uint64{1 << 63}, Nodes: []int{here}, Members: []uint64{3}}, nil},

		{"release past the plan", "v.batchRelease", batchReleaseReq{IDs: ids, Nodes: []int{nodes + 7}, Members: []uint64{1}}, nil},
		{"release another site's node", "v.batchRelease", batchReleaseReq{IDs: ids, Nodes: []int{elsewhere}, Members: []uint64{1}}, nil},
		{"release: member rows long", "v.batchRelease", batchReleaseReq{IDs: ids, Nodes: []int{here}, Members: []uint64{1, 1}}, nil},

		{"eval under a stale rule set", "v.batchEval", batchEvalReq{Gen: s.gen + 1, IDs: ids}, xerr.ErrRuleSetSkew},
		{"const under a stale rule set", "v.batchConst", batchConstReq{Gen: s.gen ^ 1<<31, IDs: ids, Rules: noRules}, xerr.ErrRuleSetSkew},
		{"const: one row for two tuples", "v.batchConst", batchConstReq{Gen: s.gen, IDs: ids, Rules: noRules[:rw]}, nil},
		{"const: rule beyond the rule set", "v.batchConst", batchConstReq{Gen: s.gen, IDs: ids, Rules: ruleBit(len(s.rules))}, nil},
		{"const: a variable rule", "v.batchConst", batchConstReq{Gen: s.gen, IDs: ids, Rules: ruleBit(variable)}, nil},
		{"rule under a stale rule set", "v.batchRule", batchRuleReq{Gen: 0, IDs: ids, Ins: []uint64{3}, Alive: noRules}, xerr.ErrRuleSetSkew},
		{"rule: rule beyond the rule set", "v.batchRule", batchRuleReq{Gen: s.gen, IDs: ids, Ins: []uint64{3}, Alive: ruleBit(63)}, nil},
		{"rule: rows for one tuple", "v.batchRule", batchRuleReq{Gen: s.gen, IDs: ids, Ins: []uint64{3}, Alive: noRules[:rw]}, nil},
		{"rule: two op words", "v.batchRule", batchRuleReq{Gen: s.gen, IDs: ids, Ins: []uint64{3, 0}, Alive: noRules}, nil},

		{"addRules at the wrong node", "v.addRules", addRulesReq{Rules: []cfd.CFD{fresh}, FirstNode: nodes + 1, Sub: sub(func(*optimizer.Plan) {})}, nil},
		{"addRules: binding outside the sub-plan", "v.addRules", addRulesReq{Rules: []cfd.CFD{fresh}, FirstNode: nodes,
			Sub: sub(func(p *optimizer.Plan) { p.Bindings["fresh"] = optimizer.RuleBinding{XNode: 5} })}, nil},
		{"addRules: node fed by a later one", "v.addRules", addRulesReq{Rules: []cfd.CFD{fresh}, FirstNode: nodes,
			Sub: sub(func(p *optimizer.Plan) {
				p.Nodes = append(p.Nodes, optimizer.Node{ID: 1, Kind: optimizer.Composed, Attrs: []string{"x"}, Inputs: []optimizer.NodeID{1}})
			})}, nil},
		{"addRules: base node off the fragment", "v.addRules", addRulesReq{Rules: []cfd.CFD{fresh}, FirstNode: nodes,
			Sub: sub(func(p *optimizer.Plan) { p.Nodes[0].Attrs = []string{"no such attribute"} })}, xerr.ErrUnknownAttribute},
		{"addRules: pattern list short", "v.addRules", addRulesReq{Rules: []cfd.CFD{{ID: "fresh", LHS: []string{"a", "b"}, LHSPattern: []string{"_"}}}, FirstNode: nodes}, xerr.ErrArityMismatch},
		{"addRules: rule in force", "v.addRules", addRulesReq{Rules: []cfd.CFD{*s.rules[0].rule}, FirstNode: nodes}, xerr.ErrDuplicateRule},
		{"addRules: rule listed twice", "v.addRules", addRulesReq{Rules: []cfd.CFD{fresh, fresh}, FirstNode: nodes, Sub: sub(func(*optimizer.Plan) {})}, xerr.ErrDuplicateRule},
		{"dropRules: rule listed twice", "v.dropRules", vDropRulesReq{Rules: []string{s.rules[0].rule.ID, s.rules[0].rule.ID}}, xerr.ErrUnknownRule},
	}
	before, err := tr.sites[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		_, err := tr.c.Dispatch(0, c.method, mustMarshal(t, c.req))
		switch {
		case err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.want != nil && !errors.Is(err, c.want):
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		case !strings.Contains(err.Error(), "site 0"):
			t.Errorf("%s: error does not name the site: %v", c.name, err)
		case c.want == nil && !strings.Contains(err.Error(), c.method):
			t.Errorf("%s: error does not name the method: %v", c.name, err)
		}
		after, err := tr.sites[0].Snapshot()
		if err != nil || !bytes.Equal(before, after) {
			t.Fatalf("%s: the refused call changed the site (snapshot err %v)", c.name, err)
		}
	}

	// The site still serves its driver.
	batch := relation.UpdateList{{Kind: relation.Delete, Tuple: rel.Tuples()[0]}}
	if _, err := sys.Apply(batch); err != nil {
		t.Fatal(err)
	}
	mirror := rel.Clone()
	if err := batch.Apply(mirror); err != nil {
		t.Fatal(err)
	}
	if want := centralized.Detect(mirror, sys.Rules()); !sys.Violations().Equal(want) {
		t.Error("V diverged from the centralized oracle after the refused calls")
	}
}

// TestDriverRefusesDivergentReplies: a v.batchEval reply with a row too
// many or a rule bit the driver does not know, in a batch and in an
// AddRules seed wave alike, and a site whose rule set moved behind the
// driver's back, fail the round. At the parent commit an unknown failed
// rule was dropped silently.
func TestDriverRefusesDivergentReplies(t *testing.T) {
	gen, rel, scheme, rules := dispatchFixture(t)
	rewriteEval := func(edit func(*batchEvalResp)) func(string, []byte) []byte {
		return func(method string, resp []byte) []byte {
			if method != "v.batchEval" {
				return resp
			}
			var r batchEvalResp
			if err := network.Unmarshal(resp, &r); err != nil {
				t.Fatal(err)
			}
			edit(&r)
			return mustMarshal(t, r)
		}
	}
	extraRow := rewriteEval(func(r *batchEvalResp) { r.Failed = append(r.Failed, 0) })
	unknownRule := rewriteEval(func(r *batchEvalResp) { r.Failed[len(r.Failed)-1] |= 1 << 63 })

	for name, tamper := range map[string]func(string, []byte) []byte{"extra row": extraRow, "unknown rule": unknownRule} {
		sys, tr := hostedSystem(t, rel, scheme, rules[:20])
		tr.tamper = tamper
		if _, err := sys.Apply(gen.Updates(rel, 6, 0.5)); err == nil || !strings.Contains(err.Error(), "v.batchEval") {
			t.Errorf("batch, %s: %v, want a malformed v.batchEval reply", name, err)
		}
		sys, tr = hostedSystem(t, rel, scheme, rules[:20])
		tr.tamper = tamper
		if _, err := sys.AddRules(rules[20:]); err == nil || !strings.Contains(err.Error(), "v.batchEval") {
			t.Errorf("seed wave, %s: %v, want a malformed v.batchEval reply", name, err)
		}
	}

	sys, tr := hostedSystem(t, rel, scheme, rules[:20])
	drop := mustMarshal(t, vDropRulesReq{Rules: []string{rules[3].ID}})
	for site := range tr.sites {
		if _, err := tr.c.Dispatch(network.SiteID(site), "v.dropRules", drop); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Apply(gen.Updates(rel, 6, 0.5)); !errors.Is(err, xerr.ErrRuleSetSkew) {
		t.Errorf("batch against sites holding another rule set: %v, want ErrRuleSetSkew", err)
	}
}

// FuzzDispatch drives arbitrary bytes through Cluster.Dispatch, the entry
// a daemon serves its framed calls through, for every method a seeded
// hosted site registers: the site answers or refuses, never panics, and
// after a call it accepted its snapshot still restores. The corpus is
// what a driver really sends its sites over a batch, an AddRules, a
// RemoveRules and a BatchDetect (all of it offered to site 0, which
// refuses what was coded for another site's nodes), plus the
// v.batchDeliver payload that used to index the eqid buffer at -3.
func FuzzDispatch(f *testing.F) {
	gen, rel, scheme, rules := dispatchFixture(f)
	sys, tr := hostedSystem(f, rel, scheme, rules[:20])
	snap, err := tr.sites[0].Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	methods := tr.c.Methods(0)
	tr.record = true
	if _, err := sys.Apply(gen.Updates(rel, 8, 0.5)); err != nil {
		f.Fatal(err)
	}
	if _, err := sys.AddRules(rules[20:]); err != nil {
		f.Fatal(err)
	}
	if _, err := sys.RemoveRules([]string{rules[2].ID}); err != nil {
		f.Fatal(err)
	}
	if _, err := sys.BatchDetect(); err != nil {
		f.Fatal(err)
	}
	sent := make(map[string]bool)
	for _, call := range tr.recorded {
		sent[call.method] = true
		f.Add(uint8(slices.Index(methods, call.method)), call.data)
	}
	for _, m := range methods {
		if !sent[m] {
			f.Fatalf("the corpus has no call of %s", m)
		}
	}
	f.Add(uint8(slices.Index(methods, "v.batchDeliver")),
		mustMarshal(f, batchDeliverReq{Items: []batchDeliverItem{{ID: 1<<63 - 1, Node: -3, Eq: -1 << 63}}}))

	restored := func(t *testing.T, snap []byte) (*network.Cluster, *HostedSite) {
		c := network.NewCluster(scheme.NumSites)
		hs, err := HostSiteState(c, 0, rel.Schema, scheme, &optimizer.Plan{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := hs.Restore(snap); err != nil {
			t.Fatalf("restoring a site's own snapshot: %v", err)
		}
		return c, hs
	}
	f.Fuzz(func(t *testing.T, method uint8, data []byte) {
		c, hs := restored(t, snap)
		if _, err := c.Dispatch(0, methods[int(method)%len(methods)], data); err != nil {
			return
		}
		after, err := hs.Snapshot()
		if err != nil {
			t.Fatalf("snapshot after an accepted %s: %v", methods[int(method)%len(methods)], err)
		}
		restored(t, after)
	})
}
