//go:build !race

package netwire

import "testing"

func TestEnvelopeAllocs(t *testing.T) {
	call := &Msg{Kind: KindCall, Seq: 77, Method: "v.batchDeliver", Data: make([]byte, 256)}
	buf, err := appendMsg(nil, call)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { buf, _ = appendMsg(buf[:0], call) }); n != 0 {
		t.Errorf("encode into a warm buffer: %v allocs, want 0", n)
	}
	// The envelope struct and the method string; Data aliases the input.
	if n := testing.AllocsPerRun(1000, func() { DecodeMsg(buf) }); n != 2 {
		t.Errorf("DecodeMsg of a call: %v allocs, want 2", n)
	}
	reply, _ := EncodeMsg(&Msg{Kind: KindReply, Seq: 77, Data: make([]byte, 64)})
	if n := testing.AllocsPerRun(1000, func() { DecodeMsg(reply) }); n != 1 {
		t.Errorf("DecodeMsg of a reply: %v allocs, want 1", n)
	}
}
