package netwire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/wire"
)

// Kind tags the envelope carried by one frame.
type Kind uint8

const (
	// KindHello bootstraps a connection: Data carries the site
	// configuration (schema, rules, partition scheme, plan) and Reconnect
	// says whether the sender has completed a handshake with this site
	// before — a server that lost its state must reject such a hello
	// rather than silently rebuild an empty site.
	KindHello Kind = 1 + iota
	// KindHelloAck answers a hello; Err is empty on success.
	KindHelloAck
	// KindCall invokes Method with Data under sequence number Seq.
	KindCall
	// KindReply answers the call with the same Seq; exactly one of Data
	// and Err is meaningful.
	KindReply
)

// Msg is the single envelope type framed on the wire. Every frame is
// self-contained — a fixed binary layout with no type descriptors and
// no stream state — so a connection can be torn down and re-established
// at any frame boundary.
type Msg struct {
	Kind      Kind
	Seq       uint64
	Method    string
	Data      []byte
	Err       string
	Reconnect bool
}

// envelopeVersion is the first byte of every envelope. A gob stream —
// the pre-binary envelope format — opens with a message length whose
// first byte is below 0x80 or at least 0xF8, so no old-format frame can
// carry this byte and version skew fails on byte one. Later layouts take
// the following values, staying inside [0x80, 0xF7].
const envelopeVersion = 0x81

// ErrBadEnvelope marks bytes that are not a well-formed envelope of this
// version: wrong version byte (including every gob-era frame), unknown
// kind, a non-canonical varint, a declared length beyond the remaining
// input, a reconnect byte other than 0/1, or trailing bytes.
var ErrBadEnvelope = errors.New("netwire: bad envelope")

// Envelope layout, in order:
//
//	version    1 byte, envelopeVersion
//	kind       1 byte, KindHello…KindReply
//	seq        uvarint
//	method     uvarint length + bytes
//	data       uvarint length + bytes
//	err        uvarint length + bytes
//	reconnect  1 byte, 0 or 1

// appendMsg appends m's envelope to dst.
func appendMsg(dst []byte, m *Msg) ([]byte, error) {
	if m.Kind < KindHello || m.Kind > KindReply {
		return dst, fmt.Errorf("%w: unknown kind %d", ErrBadEnvelope, m.Kind)
	}
	dst = append(dst, envelopeVersion, byte(m.Kind))
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = append(binary.AppendUvarint(dst, uint64(len(m.Method))), m.Method...)
	dst = append(binary.AppendUvarint(dst, uint64(len(m.Data))), m.Data...)
	dst = append(binary.AppendUvarint(dst, uint64(len(m.Err))), m.Err...)
	if m.Reconnect {
		return append(dst, 1), nil
	}
	return append(dst, 0), nil
}

// maxEnvelopeOverhead bounds an envelope's size beyond its method, data
// and err bytes: version, kind, reconnect and four 10-byte varints.
const maxEnvelopeOverhead = 3 + 4*binary.MaxVarintLen64

// EncodeMsg encodes an envelope into a standalone byte slice.
func EncodeMsg(m *Msg) ([]byte, error) {
	return appendMsg(make([]byte, 0, maxEnvelopeOverhead+len(m.Method)+len(m.Data)+len(m.Err)), m)
}

// DecodeMsg decodes a standalone envelope, failing with ErrBadEnvelope on
// anything but one complete envelope of this version. The returned
// message's Data aliases data rather than copying it; Method and Err are
// copies.
func DecodeMsg(data []byte) (*Msg, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadEnvelope, len(data))
	}
	if data[0] != envelopeVersion {
		return nil, fmt.Errorf("%w: version byte %#x, want %#x", ErrBadEnvelope, data[0], envelopeVersion)
	}
	kind := Kind(data[1])
	if kind < KindHello || kind > KindReply {
		return nil, fmt.Errorf("%w: unknown kind %d", ErrBadEnvelope, kind)
	}
	rest := data[2:]
	seq, n := wire.ReadUvarint(rest)
	if n == 0 {
		return nil, fmt.Errorf("%w: bad seq varint", ErrBadEnvelope)
	}
	rest = rest[n:]
	method, rest, okMethod := cutField(rest)
	payload, rest, okData := cutField(rest)
	errStr, rest, okErr := cutField(rest)
	if !okMethod || !okData || !okErr {
		return nil, fmt.Errorf("%w: field length beyond the remaining input", ErrBadEnvelope)
	}
	if len(rest) != 1 || rest[0] > 1 {
		return nil, fmt.Errorf("%w: want one trailing reconnect byte of 0 or 1", ErrBadEnvelope)
	}
	m := &Msg{Kind: kind, Seq: seq, Method: string(method), Err: string(errStr), Reconnect: rest[0] == 1}
	if len(payload) > 0 {
		m.Data = payload
	}
	return m, nil
}

// cutField splits a uvarint-length-prefixed field off the head of b. A
// malformed length, or one beyond the rest of b, reports !ok (and leaves
// nothing for a following cutField to succeed on).
func cutField(b []byte) (field, rest []byte, ok bool) {
	size, n := wire.ReadUvarint(b)
	if n == 0 || size > uint64(len(b)-n) {
		return nil, nil, false
	}
	end := n + int(size)
	return b[n:end], b[end:], true
}
