package sitehost

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
	"time"

	"repro/internal/cfd"
	"repro/internal/optimizer"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/wire/wiretest"
)

// Hello payload length must not depend on the random session id's byte
// values: the committed Exp-net frame_bytes column (BENCH_exact.json) is
// remeasured on every bench-verify, so a value-dependent varint would make
// the baseline drift run to run. SessionID crosses the wire as a []byte
// (length + raw bytes) to keep the frame size fixed.
func TestHelloLengthIndependentOfSessionID(t *testing.T) {
	schema, err := relation.NewSchema("r", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := cfd.Parse("r1: ([a] -> [b], (_, _))", 0)
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi [8]byte // all varint-cheap vs all varint-expensive bytes
	for i := range hi {
		hi[i] = 0xFF
	}
	a, err := HorizontalHellos(lo, schema, rules, 3, Checkpointing{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := HorizontalHellos(hi, schema, rules, 3, Checkpointing{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("site %d hello length depends on session id bytes: %d vs %d", i, len(a[i]), len(b[i]))
		}
	}
}

// A hello whose session id is not exactly 8 bytes must be rejected, not
// silently truncated or padded into a colliding identity.
func TestBootstrapRejectsBadSessionID(t *testing.T) {
	schema, err := relation.NewSchema("r", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	h := &Hello{
		Proto: ProtoVersion, SessionID: []byte{1, 2, 3}, Kind: KindHorizontal,
		Site: 0, NumSites: 1,
		SchemaName: schema.Name, SchemaAttrs: schema.Attrs,
	}
	data, err := h.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewHost().Bootstrap(data, false); err == nil {
		t.Fatal("bootstrap accepted a 3-byte session id")
	}
}

// A driver built before the wire last changed — version 1's gob envelopes
// and payloads, version 2's one-node v.batchResolve, version 3's
// per-update methods, version 5's gob hello, version 6's h.apply,
// version 7's h.batchApply reply without the class-flag summary — must be
// refused at the hello, before any call payload is interpreted.
func TestBootstrapRejectsOlderProto(t *testing.T) {
	var gobHello bytes.Buffer
	if err := gob.NewEncoder(&gobHello).Encode(&Hello{
		Proto: 5, SessionID: []byte{1, 2, 3, 4, 5, 6, 7, 8}, Kind: KindHorizontal,
		Site: 0, NumSites: 1, SchemaName: "r", SchemaAttrs: []string{"a", "b"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := NewHost().Bootstrap(gobHello.Bytes(), false); err == nil {
		t.Fatal("bootstrap accepted a gob-encoded hello")
	}
	for proto := 1; proto < ProtoVersion; proto++ {
		h := &Hello{
			Proto: proto, SessionID: []byte{1, 2, 3, 4, 5, 6, 7, 8}, Kind: KindHorizontal,
			Site: 0, NumSites: 1, SchemaName: "r", SchemaAttrs: []string{"a", "b"},
		}
		data, err := h.Encode()
		if err != nil {
			t.Fatal(err)
		}
		host := NewHost()
		if err := host.Bootstrap(data, false); err == nil {
			t.Fatalf("bootstrap accepted protocol version %d", proto)
		}
		if _, _, ok := host.Hosting(); ok {
			t.Fatalf("rejected version-%d hello still built a site", proto)
		}
	}
}

// Two sites of one session pointed at one daemon must not be merged: the
// host refuses a same-session hello for a different site, naming both,
// while the hosted site's own hello (a duplicate connection or a
// reconnect) still passes.
func TestBootstrapRefusesSecondSiteOfSession(t *testing.T) {
	schema, err := relation.NewSchema("r", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := cfd.Parse("r1: ([a] -> [b], (_, _))", 0)
	if err != nil {
		t.Fatal(err)
	}
	sid := [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
	hellos, err := HorizontalHellos(sid, schema, rules, 2, Checkpointing{})
	if err != nil {
		t.Fatal(err)
	}
	wider, err := HorizontalHellos(sid, schema, rules, 3, Checkpointing{})
	if err != nil {
		t.Fatal(err)
	}
	host := NewHost()
	if err := host.Bootstrap(hellos[0], false); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		hello []byte
		want  string
	}{
		{"other site", hellos[1], "horizontal site 0 of 2 is hosted here, refusing its horizontal site 1 of 2"},
		{"other site count", wider[0], "horizontal site 0 of 2 is hosted here, refusing its horizontal site 0 of 3"},
	} {
		err := host.Bootstrap(c.hello, false)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Bootstrap = %v, want an error containing %q", c.name, err, c.want)
		}
	}
	for _, reconnect := range []bool{false, true} {
		if err := host.Bootstrap(hellos[0], reconnect); err != nil {
			t.Errorf("own hello (reconnect=%v) refused: %v", reconnect, err)
		}
	}
	if kind, site, ok := host.Hosting(); !ok || kind != KindHorizontal || site != 0 {
		t.Errorf("Hosting() = %s %d %v, want horizontal 0 true", kind, site, ok)
	}
}

// A forged hello claiming 1<<20 sites would make the daemon allocate n²
// per-pair meter keys before noticing anything; it is refused against
// MaxSites before anything is sized by it, builds no site, and leaves
// the host free for a real driver.
func TestBootstrapRefusesHugeSiteCount(t *testing.T) {
	h := &Hello{
		Proto: ProtoVersion, SessionID: []byte{1, 2, 3, 4, 5, 6, 7, 8}, Kind: KindHorizontal,
		Site: 0, NumSites: 1 << 20, SchemaName: "r", SchemaAttrs: []string{"a", "b"},
	}
	data, err := h.Encode()
	if err != nil {
		t.Fatal(err)
	}
	host := NewHost()
	start := time.Now()
	err = host.Bootstrap(data, false)
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("refusing the hello took %v", took)
	}
	if err == nil || !strings.Contains(err.Error(), "at most") {
		t.Fatalf("Bootstrap = %v, want a refusal naming the site bound", err)
	}
	if _, _, ok := host.Hosting(); ok {
		t.Fatal("a refused hello built a site")
	}
	h.NumSites = 2
	if data, err = h.Encode(); err != nil {
		t.Fatal(err)
	}
	if err := host.Bootstrap(data, false); err != nil {
		t.Fatalf("a valid hello after the refusal: %v", err)
	}
}

// The hello and its status left gob for the positional codec; they must
// decode as gob decoded them, vertical plan and scheme included.
func TestHelloCodecMatchesGob(t *testing.T) {
	schema, err := relation.NewSchema("r", []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := cfd.ParseAll("r1: ([a] -> [b], (_, _))\nr2: ([a, c] -> [b], (x, _, y))")
	if err != nil {
		t.Fatal(err)
	}
	scheme := partition.RoundRobinVertical(schema, 2)
	in := optimizer.Input{NumSites: 2, AttrSites: scheme.AttrSites}
	for _, r := range rules {
		in.Rules = append(in.Rules, optimizer.RuleSpec{ID: r.ID, LHS: r.LHS, RHS: r.RHS})
	}
	plan, err := optimizer.NaiveChainPlan(in)
	if err != nil {
		t.Fatal(err)
	}
	wiretest.GobParity(t, Hello{
		Proto: ProtoVersion, SessionID: []byte{1, 2, 3, 4, 5, 6, 7, 8}, Kind: KindVertical,
		Site: 1, NumSites: 2, SchemaName: schema.Name, SchemaAttrs: schema.Attrs,
		Rules: rules, VScheme: scheme, Plan: plan, CheckpointDir: "/d/site1", CheckpointEvery: 3,
	})
	wiretest.GobParity(t, Hello{Proto: ProtoVersion, Kind: KindHorizontal, NumSites: 1})
	wiretest.GobParity(t, HelloStatus{LastSeq: 1 << 40})
}
