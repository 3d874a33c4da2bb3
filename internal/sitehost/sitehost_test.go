package sitehost

import (
	"testing"

	"repro/internal/cfd"
	"repro/internal/relation"
)

// Hello payload length must not depend on the random session id's byte
// values: the committed Exp-net frame_bytes column (BENCH_exact.json) is
// remeasured on every bench-verify, so a value-dependent varint (an [8]byte array
// field would gob-encode each byte ≥ 0x80 as two bytes) would make the
// baseline drift run to run. SessionID crosses the wire as a []byte
// (length + raw bytes) precisely to keep the frame size fixed.
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
// per-update methods — must be refused at the hello, before any call
// payload is interpreted.
func TestBootstrapRejectsOlderProto(t *testing.T) {
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
