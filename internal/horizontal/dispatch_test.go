package horizontal

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
// state touched only by Dispatch — in this process, and records the
// (method, payload) of every call.
type hostedTransport struct {
	c     *network.Cluster
	sites []*HostedSite

	mu       sync.Mutex
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
	h.recorded = append(h.recorded, sentCall{method, data})
	tamper := h.tamper
	h.mu.Unlock()
	resp, err := h.c.Dispatch(to, method, data)
	if err == nil && tamper != nil {
		resp = tamper(method, resp)
	}
	return resp, err
}

func (h *hostedTransport) Close() error { return nil }

// hostedSystem seeds rel into hosted sites holding rules and returns the
// driver with the transport between them.
func hostedSystem(t testing.TB, rel *relation.Relation, scheme *partition.HorizontalScheme, rules []cfd.CFD, opts Options) (*System, *hostedTransport) {
	t.Helper()
	tr := &hostedTransport{c: network.NewCluster(scheme.NumSites())}
	for i := 0; i < scheme.NumSites(); i++ {
		hs, err := HostSiteState(tr.c, network.SiteID(i), rel.Schema, rules)
		if err != nil {
			t.Fatal(err)
		}
		tr.sites = append(tr.sites, hs)
	}
	opts.Transport = tr
	sys, err := NewSystem(rel, scheme, rules, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys, tr
}

// dispatchFixture is a small seeded deployment: enough rows for classes
// of more than one member, and a rule pool (the first 20 to start with,
// four to add).
func dispatchFixture() (*workload.Generator, *relation.Relation, *partition.HorizontalScheme, []cfd.CFD) {
	gen := workload.NewSized(workload.TPCH, 7, 800)
	return gen, gen.Relation(120), partition.HashHorizontal("c_name", 3), gen.Rules(24)
}

// brandFD is a plain FD that no hash partition on c_name makes local, so
// every site holds groups of it.
var brandFD = cfd.CFD{ID: "brand", LHS: []string{"p_brand"}, LHSPattern: []string{cfd.Wildcard}, RHS: "p_mfgr", RHSPattern: cfd.Wildcard}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	data, err := network.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHandlersRefuseMalformedCalls: a group digest that is not 16 bytes —
// in a probe or a settle, behind an item the site could serve — an update
// of an unknown op or arity, the deletion of a tuple the fragment does
// not hold with the values given, and rule lists a site cannot install or
// drop whole are answered with an error naming the site (and the
// method), and the site does not change. At the parent commit the two
// digest cases killed the process.
func TestHandlersRefuseMalformedCalls(t *testing.T) {
	_, rel, scheme, rules := dispatchFixture()
	sys, tr := hostedSystem(t, rel, scheme, rules[:20], Options{})
	s := tr.sites[0].st
	held := s.frag.Tuples()[0]
	other := slices.Clone(held.Values)
	other[0] += "'"
	// A group with an unflagged class: serving the item would change the
	// site, so an unchanged site shows the refusal came first.
	var rule string
	var dx code
	for _, r := range s.ruleOrder {
		for x, g := range r.groups {
			for _, c := range g {
				if !c.inV {
					rule, dx = r.ID, x
				}
			}
		}
	}
	if rule == "" {
		t.Fatal("fixture: site 0 holds no unflagged class")
	}
	good, short := keyRef{Digest: dx[:]}, keyRef{Digest: []byte{1, 2, 3}}
	cases := []struct {
		name, method string
		req          any
		want         error // nil: any error naming the method
	}{
		{"probe: 3-byte digest", "h.probeGroup", probeGroupReq{Items: []probeGroupItem{{Rule: rule, X: good, Decided: true}, {Rule: rule, X: short}}}, nil},
		{"settle: 3-byte digest", "h.settleGroup", settleGroupReq{Items: []settleGroupItem{{Rule: rule, X: good, Flag: true}, {Rule: rule, X: short, Flag: true}}}, nil},
		{"batch: unknown op", "h.batchApply", batchApplyReq{Updates: []batchApplyItem{{Op: 7, ID: 1 << 40, Values: held.Values}}}, nil},
		{"batch: tuple short of the schema", "h.batchApply", batchApplyReq{Updates: []batchApplyItem{{Op: OpInsert, ID: 1 << 40, Values: held.Values[:2]}}}, nil},
		{"batch: delete of an absent tuple", "h.batchApply", batchApplyReq{Updates: []batchApplyItem{{Op: OpDelete, ID: 1 << 40, Values: held.Values}}}, nil},
		{"batch: delete under other values", "h.batchApply", batchApplyReq{Updates: []batchApplyItem{{Op: OpDelete, ID: int64(held.ID), Values: other}}}, nil},
		{"seedRules: flags short of the rules", "h.seedRules", seedRulesReq{Rules: []cfd.CFD{brandFD}}, nil},
		{"seedRules: unknown attribute", "h.seedRules", seedRulesReq{Rules: []cfd.CFD{{ID: "bad", LHS: []string{"no such attribute"}, LHSPattern: []string{cfd.Wildcard}, RHS: "p_mfgr", RHSPattern: cfd.Wildcard}}, Local: []bool{false}}, xerr.ErrUnknownAttribute},
		{"seedRules: rule listed twice", "h.seedRules", seedRulesReq{Rules: []cfd.CFD{brandFD, brandFD}, Local: []bool{false, false}}, xerr.ErrDuplicateRule},
		{"dropRules: rule listed twice", "h.dropRules", dropRulesReq{Rules: []string{rule, rule}}, xerr.ErrUnknownRule},
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
		checkIndex(t, s)
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

// rewriteReply returns a tamper that decodes method's replies as R and
// re-encodes them after edit.
func rewriteReply[R any](t *testing.T, method string, edit func(*R)) func(string, []byte) []byte {
	return func(m string, resp []byte) []byte {
		if m != method {
			return resp
		}
		var r R
		if err := network.Unmarshal(resp, &r); err != nil {
			t.Error(err)
			return resp
		}
		edit(&r)
		out, err := network.Marshal(r)
		if err != nil {
			t.Error(err)
			return resp
		}
		return out
	}
}

// TestDriverRefusesMalformedReplies: an h.batchApply reply naming a rule
// the driver does not hold, or whose deleted ids and their flags differ in
// length, and an h.seedRules reply with a short group code fail the round
// as a malformed reply. At the parent commit each of the three panicked
// in the driver.
func TestDriverRefusesMalformedReplies(t *testing.T) {
	gen, rel, scheme, rules := dispatchFixture()
	batch := gen.Updates(rel, 24, 0.5)
	applyBatch := func(sys *System) error {
		_, err := sys.Apply(batch)
		return err
	}
	cases := []struct {
		name, method string
		tamper       func(string, []byte) []byte
		round        func(*System) error
	}{
		{"unknown rule", "h.batchApply", rewriteReply(t, "h.batchApply", func(r *batchApplyResp) {
			for i := range r.Groups {
				r.Groups[i].Rule = "no such rule"
			}
		}), applyBatch},
		{"flags short of the deleted ids", "h.batchApply", rewriteReply(t, "h.batchApply", func(r *batchApplyResp) {
			for i := range r.Groups {
				if n := len(r.Groups[i].Deleted); n > 0 {
					r.Groups[i].DeletedWasInV = r.Groups[i].DeletedWasInV[:n-1]
				}
			}
		}), applyBatch},
		{"short group code", "h.seedRules", rewriteReply(t, "h.seedRules", func(r *seedRulesResp) {
			for i := range r.Items {
				for j := range r.Items[i].Groups {
					r.Items[i].Groups[j].X = r.Items[i].Groups[j].X[:3]
				}
			}
		}), func(sys *System) error {
			_, err := sys.AddRules([]cfd.CFD{brandFD})
			return err
		}},
	}
	for _, c := range cases {
		sys, tr := hostedSystem(t, rel, scheme, rules[:20], Options{})
		tr.tamper = c.tamper
		if err := c.round(sys); err == nil || !strings.Contains(err.Error(), c.method+": malformed") {
			t.Errorf("%s: %v, want a malformed %s reply", c.name, err, c.method)
		}
	}
}

// FuzzDispatch drives arbitrary bytes through Cluster.Dispatch, the entry
// a daemon serves its framed calls through, for every method a seeded
// hosted site registers: the site answers or refuses, never panics, and
// after a call it accepted its index holds no empty class and no fresh
// bit, and its snapshot still restores. The corpus is what a driver
// really sends its sites — seeding with and without indexes, a batch, an
// AddRules, a RemoveRules and a BatchDetect, all offered to site 0 —
// plus the probe and the settle whose 3-byte digest used to kill the
// process.
func FuzzDispatch(f *testing.F) {
	gen, rel, scheme, rules := dispatchFixture()
	bare, bareTr := hostedSystem(f, rel, scheme, rules[:20], Options{NoIndexes: true})
	if _, err := bare.BatchDetect(); err != nil {
		f.Fatal(err)
	}
	sys, tr := hostedSystem(f, rel, scheme, rules[:20], Options{})
	snap, err := tr.sites[0].Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	if _, err := sys.Apply(gen.Updates(rel, 24, 0.5)); err != nil {
		f.Fatal(err)
	}
	if _, err := sys.AddRules(rules[20:]); err != nil {
		f.Fatal(err)
	}
	if _, err := sys.RemoveRules([]string{rules[2].ID}); err != nil {
		f.Fatal(err)
	}
	methods := tr.c.Methods(0)
	sent := make(map[string]bool)
	for _, call := range append(bareTr.recorded, tr.recorded...) {
		sent[call.method] = true
		f.Add(uint8(slices.Index(methods, call.method)), call.data)
	}
	for _, m := range methods {
		if !sent[m] {
			f.Fatalf("the corpus has no call of %s", m)
		}
	}
	short := keyRef{Digest: []byte{1, 2, 3}}
	f.Add(uint8(slices.Index(methods, "h.probeGroup")), mustMarshal(f, probeGroupReq{Items: []probeGroupItem{{Rule: rules[0].ID, X: short}}}))
	f.Add(uint8(slices.Index(methods, "h.settleGroup")), mustMarshal(f, settleGroupReq{Items: []settleGroupItem{{Rule: rules[0].ID, X: short}}}))

	restored := func(t *testing.T, snap []byte) (*network.Cluster, *HostedSite) {
		c := network.NewCluster(scheme.NumSites())
		hs, err := HostSiteState(c, 0, rel.Schema, nil)
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
		m := methods[int(method)%len(methods)]
		if _, err := c.Dispatch(0, m, data); err != nil {
			return
		}
		checkIndex(t, hs.st)
		after, err := hs.Snapshot()
		if err != nil {
			t.Fatalf("snapshot after an accepted %s: %v", m, err)
		}
		restored(t, after)
	})
}
