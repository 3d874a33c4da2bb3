package checkpoint

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// The CRC-framed record convention shared by every durable file in the
// repository: site checkpoints and delta logs (this package), the
// driver's write-ahead journal (internal/journal) and the out-of-core
// page store (internal/storage). Each record is a big-endian uint32
// payload length, a big-endian uint32 CRC-32 (IEEE) of the payload, then
// the payload. The exported helpers keep the three layers bit-compatible
// by construction instead of by copy.

// FrameOverhead is the per-record framing cost in bytes (length + CRC).
const FrameOverhead = 8

// ErrTornRecord marks an incomplete trailing record: the file ends
// inside the frame — the expected shape of a crash mid-append, which
// readers recover from by truncating to the preceding record.
var ErrTornRecord = errors.New("torn trailing record")

// ErrBadCRC marks a complete record whose payload fails its checksum —
// genuine corruption, never the benign crash-mid-append shape.
var ErrBadCRC = errors.New("record CRC mismatch")

// WriteFramed writes one length+CRC-prefixed record.
func WriteFramed(w io.Writer, payload []byte) error {
	var frame [FrameOverhead]byte
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(frame[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFramed reads one record, verifying its CRC. io.EOF means a clean
// end at a record boundary; ErrTornRecord means the file ends inside a
// record; ErrBadCRC is corruption.
func ReadFramed(r io.Reader) ([]byte, error) {
	var frame [FrameOverhead]byte
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, ErrTornRecord
	}
	n := binary.BigEndian.Uint32(frame[0:4])
	want := binary.BigEndian.Uint32(frame[4:8])
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, ErrTornRecord
	}
	if crc32.ChecksumIEEE(payload) != want {
		return nil, ErrBadCRC
	}
	return payload, nil
}

// CheckFramed verifies rec as exactly one framed record already in
// memory — the single-pread counterpart of ReadFramed for callers that
// know the record's extent — and returns its payload, aliasing rec.
func CheckFramed(rec []byte) ([]byte, error) {
	if len(rec) < FrameOverhead || uint64(binary.BigEndian.Uint32(rec[0:4])) != uint64(len(rec)-FrameOverhead) {
		return nil, ErrTornRecord
	}
	payload := rec[FrameOverhead:]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(rec[4:8]) {
		return nil, ErrBadCRC
	}
	return payload, nil
}
