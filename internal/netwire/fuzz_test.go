package netwire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzFrame exercises the framing codec against adversarial input from
// both directions: arbitrary bytes as a wire stream (must never panic,
// never allocate beyond the declared maximum, and every accepted frame
// must re-encode to the bytes just consumed), and arbitrary bytes as a
// payload (must survive a round trip unchanged).
func FuzzFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o'})
	f.Add([]byte{0, 0, 0, 5, 'h', 'i'}) // torn payload
	seed, _ := AppendFrame(nil, []byte("seed-payload"), 0)
	f.Add(seed)

	const max = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: data is a hostile wire stream.
		r := bytes.NewReader(data)
		payload, err := ReadFrame(r, max)
		switch {
		case err == nil:
			if len(payload) > max {
				t.Fatalf("accepted frame of %d bytes above max %d", len(payload), max)
			}
			// Re-encoding the accepted frame must reproduce the consumed
			// prefix exactly.
			reenc, err := AppendFrame(nil, payload, max)
			if err != nil {
				t.Fatalf("re-encode of accepted frame: %v", err)
			}
			if !bytes.Equal(reenc, data[:len(reenc)]) {
				t.Fatal("re-encoded frame differs from consumed bytes")
			}
		case errors.Is(err, ErrFrameTooLarge),
			err == io.EOF, err == io.ErrUnexpectedEOF:
			// The three legal rejections.
		default:
			t.Fatalf("unexpected ReadFrame error: %v", err)
		}

		// Direction 2: data is a payload; it must round-trip bit-exactly.
		if len(data) <= max {
			buf, err := AppendFrame(nil, data, max)
			if err != nil {
				t.Fatalf("AppendFrame(%d bytes): %v", len(data), err)
			}
			got, err := ReadFrame(bytes.NewReader(buf), max)
			if err != nil {
				t.Fatalf("ReadFrame of own frame: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("payload round trip corrupted")
			}
		}
	})
}

// FuzzMsg feeds arbitrary bytes to the envelope decoder: it must never
// panic, must fail only with ErrBadEnvelope, must never hand out more
// bytes than it was given (every declared length is checked against the
// remaining input before use), and every envelope it accepts must
// re-encode to exactly the bytes it consumed — the encoding is canonical.
func FuzzMsg(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{envelopeVersion, byte(KindCall), 0x80, 0x00, 0, 0, 0, 0}) // padded seq varint
	f.Add([]byte{envelopeVersion, byte(KindCall), 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0, 0})
	for _, m := range []*Msg{
		{Kind: KindHello, Data: []byte("hello-payload"), Reconnect: true},
		{Kind: KindHelloAck, Err: "rejected"},
		{Kind: KindCall, Seq: 1 << 40, Method: "v.batchDeliver", Data: []byte{1, 2, 3}},
		{Kind: KindReply, Seq: 9},
	} {
		seed, err := EncodeMsg(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMsg(data)
		if err != nil {
			if !errors.Is(err, ErrBadEnvelope) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if got := len(m.Method) + len(m.Data) + len(m.Err); got > len(data) {
			t.Fatalf("decoded %d bytes of fields from %d bytes of input", got, len(data))
		}
		reenc, err := EncodeMsg(m)
		if err != nil {
			t.Fatalf("re-encode of accepted envelope: %v", err)
		}
		if !bytes.Equal(reenc, data) {
			t.Fatalf("re-encoded envelope differs from input:\n in  %x\n out %x", data, reenc)
		}
	})
}
