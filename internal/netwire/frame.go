// Package netwire is the physical wire layer of the multi-process
// deployment: length-prefixed binary frames over net.Conn, with
// connection lifecycle (dial retry with backoff, per-message deadlines,
// graceful close) and optional TLS. It carries the driver↔sited protocol
// but knows nothing about detection — payloads are opaque bytes.
//
// The framing format is deliberately minimal: a 4-byte big-endian
// payload length followed by the payload, one fixed-layout envelope
// (msg.go). A reader enforces a maximum frame size before allocating, so
// an adversarial or corrupted length header cannot force an unbounded
// allocation.
//
// These physical bytes are NOT the protocol meters: the detection
// algorithms' cross-site traffic is metered by the cluster at the length
// of each call's payload (identical to the in-process run), while the
// socket bytes — frame headers, envelopes, every payload including
// same-site ones, handshakes — are counted separately as framing
// overhead.
package netwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// frameHeaderLen is the fixed length prefix: payload size as a big-endian
// uint32.
const frameHeaderLen = 4

// DefaultMaxFrame bounds a frame's payload when the caller does not say
// otherwise. Protocol messages are far smaller; the bound exists so a
// corrupted or hostile length header is rejected before allocation.
const DefaultMaxFrame = 64 << 20

// ErrFrameTooLarge marks a frame whose declared payload length exceeds
// the reader's (or writer's) maximum. The reader rejects it without
// allocating the declared length.
var ErrFrameTooLarge = errors.New("netwire: frame exceeds maximum size")

// AppendFrame appends the framed encoding of payload to dst and returns
// the extended slice. max <= 0 means DefaultMaxFrame.
func AppendFrame(dst, payload []byte, max int64) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	if int64(len(payload)) > max {
		return dst, fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, len(payload), max)
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...), nil
}

// ReadFrame reads one framed payload from r, rejecting any frame whose
// declared length exceeds max (<= 0 means DefaultMaxFrame) before
// allocating. A clean EOF at a frame boundary returns io.EOF; a torn
// header or payload returns io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, max int64) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int64(binary.BigEndian.Uint32(hdr[:]))
	if n > max {
		return nil, fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, n, max)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}
