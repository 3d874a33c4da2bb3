package netwire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"
)

// gobMsg reproduces the pre-binary envelope: one self-contained gob
// stream of the Msg struct per frame.
func gobMsg(t *testing.T, m *Msg) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Anything that is not one complete current-version envelope must fail
// typed: skewed peers and damaged frames never mis-decode.
func TestDecodeMsgRejects(t *testing.T) {
	good, err := EncodeMsg(&Msg{Kind: KindCall, Seq: 300, Method: "v.batchDeliver", Data: []byte("abc")})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	cases := map[string][]byte{
		"empty":                      {},
		"gob-era envelope":           gobMsg(t, &Msg{Kind: KindCall, Seq: 300, Method: "v.batchDeliver", Data: []byte("abc")}),
		"gob-era hello":              gobMsg(t, &Msg{Kind: KindHello, Data: bytes.Repeat([]byte{7}, 300), Reconnect: true}),
		"older version":              mutate(func(b []byte) []byte { b[0]--; return b }),
		"kind zero":                  mutate(func(b []byte) []byte { b[1] = 0; return b }),
		"kind too large":             mutate(func(b []byte) []byte { b[1] = byte(KindReply) + 1; return b }),
		"padded seq":                 {envelopeVersion, byte(KindReply), 0x80, 0x00, 0, 0, 0, 0},
		"method length beyond input": {envelopeVersion, byte(KindCall), 1, 0xFF, 0xFF, 0x03, 'm', 0, 0, 0},
		"data length beyond input":   mutate(func(b []byte) []byte { return b[:len(b)-3] }),
		"missing reconnect byte":     mutate(func(b []byte) []byte { return b[:len(b)-1] }),
		"reconnect byte 2":           mutate(func(b []byte) []byte { b[len(b)-1] = 2; return b }),
		"trailing byte":              mutate(func(b []byte) []byte { return append(b, 0) }),
	}
	for name, in := range cases {
		if m, err := DecodeMsg(in); !errors.Is(err, ErrBadEnvelope) {
			t.Errorf("%s: DecodeMsg = %+v, %v; want ErrBadEnvelope", name, m, err)
		}
	}
	if _, err := EncodeMsg(&Msg{Kind: 9}); !errors.Is(err, ErrBadEnvelope) {
		t.Errorf("EncodeMsg of unknown kind: %v, want ErrBadEnvelope", err)
	}
}

// The envelope of a call costs a handful of bytes beyond its method and
// payload; a regression to per-frame type descriptors (the gob envelope
// paid ~100) fails here.
func TestCallEnvelopeOverhead(t *testing.T) {
	m := &Msg{Kind: KindCall, Seq: 1 << 20, Method: "h.batchApply", Data: make([]byte, 5000)}
	enc, err := EncodeMsg(m)
	if err != nil {
		t.Fatal(err)
	}
	framed, err := AppendFrame(nil, enc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if over := len(framed) - len(m.Data) - len(m.Method); over > 16 {
		t.Fatalf("framed call envelope overhead = %d B beyond method and data, want <= 16", over)
	}
}

// DecodeMsg hands out Data as a slice of its input, not a copy.
func TestDecodeMsgAliasesData(t *testing.T) {
	enc, err := EncodeMsg(&Msg{Kind: KindReply, Seq: 1, Data: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeMsg(enc)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(enc, []byte("payload"))
	enc[at] = 'P'
	if string(m.Data) != "Payload" {
		t.Fatalf("Data = %q: copied out of the frame buffer", m.Data)
	}
}
