package seglog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Format is what tells one client's files from another's: everything
// else about a durable file is the same for all of them.
type Format struct {
	Magic   [4]byte
	Version byte
	// Name prefixes every error ("checkpoint", "journal", "storage").
	Name string
	// Corrupt is the sentinel every validation failure wraps.
	Corrupt error
}

const (
	// HeaderLen is the length of a file header: magic, version, kind.
	HeaderLen = 6
	// FrameOverhead is the per-record framing cost in bytes (length + CRC).
	FrameOverhead = 8
)

// Corruptf wraps a validation failure as an errors.Is-compatible
// f.Corrupt.
func (f Format) Corruptf(format string, args ...any) error {
	return fmt.Errorf("%s: %w: %s", f.Name, f.Corrupt, fmt.Sprintf(format, args...))
}

func (f Format) errorf(format string, args ...any) error {
	return fmt.Errorf(f.Name+": "+format, args...)
}

// WriteHeader writes the header of a file of the given kind.
func (f Format) WriteHeader(w io.Writer, kind byte) error {
	_, err := w.Write([]byte{f.Magic[0], f.Magic[1], f.Magic[2], f.Magic[3], f.Version, kind})
	return err
}

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

// CheckFramed verifies rec as exactly one framed record already in
// memory — for a caller that knows the record's extent and reads it with
// one pread — and returns its payload, aliasing rec.
func CheckFramed(rec []byte) ([]byte, error) {
	if len(rec) < FrameOverhead || uint64(binary.BigEndian.Uint32(rec[0:4])) != uint64(len(rec)-FrameOverhead) {
		return nil, errors.New("torn record")
	}
	payload := rec[FrameOverhead:]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(rec[4:8]) {
		return nil, errors.New("record CRC mismatch")
	}
	return payload, nil
}

// Scan is the one reader of a durable file. It checks the header (magic,
// version and kind) and hands fn every record with the offset of its
// frame, each payload freshly allocated. valid is the length of the
// prefix that checked out. torn reports that the file ends inside its
// header (valid is then 0) or inside a record — a frame that claims more
// bytes than the file has left is such a record, and is never allocated.
// Whether a tear is a crash mid-append or damage is the caller's call; a
// bad header or a CRC failure is f.Corrupt wherever it is, and fn's error
// ends the scan as it is.
func (f Format) Scan(file *os.File, kind byte, fn func(off int64, payload []byte) error) (valid int64, torn bool, err error) {
	info, err := file.Stat()
	if err != nil {
		return 0, false, f.errorf("%w", err)
	}
	size, path := info.Size(), file.Name()
	if size < HeaderLen {
		return 0, true, nil
	}
	r := bufio.NewReader(io.NewSectionReader(file, 0, size))
	var hdr [FrameOverhead]byte // the file's header, then each frame's
	if _, err := io.ReadFull(r, hdr[:HeaderLen]); err != nil {
		return 0, false, f.errorf("%w", err)
	}
	switch {
	case [4]byte(hdr[:4]) != f.Magic:
		return 0, false, f.Corruptf("%s: bad magic %x", path, hdr[:4])
	case hdr[5] != kind:
		return 0, false, f.Corruptf("%s: file kind %d, want %d", path, hdr[5], kind)
	case hdr[4] != f.Version:
		return 0, false, f.Corruptf("%s: format version %d, want %d", path, hdr[4], f.Version)
	}
	off := int64(HeaderLen)
	for off < size {
		if size-off < FrameOverhead {
			return off, true, nil
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, false, f.errorf("%w", err)
		}
		n := int64(binary.BigEndian.Uint32(hdr[0:4]))
		if n > size-off-FrameOverhead {
			return off, true, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, false, f.errorf("%w", err)
		}
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:8]) {
			return off, false, f.Corruptf("%s @%d: CRC mismatch", path, off)
		}
		if err := fn(off, payload); err != nil {
			return off, false, err
		}
		off += FrameOverhead + n
	}
	return off, false, nil
}
