// Package checkpoint is the durable-state layer of a site daemon:
// versioned, CRC-checksummed, atomically-renamed snapshot files plus an
// append-only delta log of the raw calls applied since the snapshot.
//
// The design leans on the same determinism that makes the differential
// oracles possible: a hosted site mutates its state only through the
// serialized call stream the driver sends it, and every handler is a
// deterministic function of (state, call). A checkpoint is therefore a
// full snapshot at some call sequence number S plus the raw (seq,
// method, payload) records executed after S; replaying the records
// through the ordinary dispatch path reconstructs the exact pre-crash
// state — including the at-most-once reply window — with cost
// proportional to the delta, not the database (the paper's boundedness
// result, carried through to recovery).
//
// On-disk layout (one directory per site):
//
//	snap-<epoch>.ckpt   header + one CRC-framed gob(Snapshot) record
//	delta-<epoch>.log   header + CRC-framed Record records, each the
//	                    positional encoding (internal/wire) of the call's
//	                    seq, method and raw payload
//
// Both files start with a 6-byte header: magic "RCKP", a format version
// byte and a file-kind byte. Every record is framed as a big-endian
// uint32 payload length, a big-endian uint32 CRC-32 (IEEE) of the
// payload, then the payload. Snapshots are written to a temp file,
// synced, and atomically renamed; writing a snapshot is also the log's
// compaction — the new epoch starts an empty log and the old epoch's
// files are removed.
//
// Validation is strict in one direction and lenient in the other: a
// truncated or CRC-damaged snapshot, a mid-log CRC failure, or a
// version mismatch between a snapshot and its delta log invalidates the
// whole epoch (never load partial state — Recover surfaces
// xerr.ErrCheckpointCorrupt and the daemon starts empty, degrading to a
// full reseed). A torn *trailing* log record, by contrast, is the
// expected shape of a crash mid-append: everything before it was
// already made durable and acknowledged, the torn tail never was — so
// the valid prefix is recovered and the file truncated at the tear.
//
// None of these bytes ride the metered protocol streams: snapshots are
// encoded with a stream-local gob encoder and log records carry no gob
// at all, so the committed wire-meter baselines stay bit-identical
// whether or not checkpointing is on.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/wire"
	"repro/internal/xerr"
)

// FormatVersion is the on-disk format version; a snapshot and its delta
// log must agree on it. The delta log holds raw call payloads, so the
// version also moves when a call payload is reshaped (3: v.batchResolve
// carries a stage's node groups).
const FormatVersion = 3

// File kinds, distinguishing snapshots from delta logs in the header so
// neither can be misread as the other.
const (
	kindSnapshot byte = 1
	kindDeltaLog byte = 2
)

var magic = [4]byte{'R', 'C', 'K', 'P'}

const headerLen = 6 // magic + version + kind

// Record is one raw call applied after the current snapshot: exactly
// the (seq, method, payload) triple the driver sent. Replaying it
// through the daemon's dispatch path re-executes it deterministically.
type Record struct {
	Seq    uint64
	Method string
	Data   []byte
}

// Reply is one cached reply of the daemon's at-most-once window,
// persisted so a resend arriving after a crash-recovery is still served
// from cache instead of executing twice.
type Reply struct {
	Seq  uint64
	Data []byte
	Err  string
}

// Snapshot is the full durable state of a hosted site at sequence
// number LastSeq.
type Snapshot struct {
	// Epoch is the snapshot's monotonically increasing number, assigned
	// by WriteSnapshot.
	Epoch uint64
	// Hello is the driver's original bootstrap payload: everything
	// needed to rebuild the site skeleton (schema, rules, plan, session
	// identity) before Engine state is loaded into it.
	Hello []byte
	// LastSeq is the highest call sequence number reflected in Engine.
	LastSeq uint64
	// Window is the reply cache at snapshot time.
	Window []Reply
	// Engine is the engine-specific state blob (horizontal or vertical
	// site snapshot): relation fragment, per-rule group/equivalence
	// state and mark flags.
	Engine []byte
}

// Store manages one site's checkpoint directory: the current snapshot
// epoch and its open delta log.
type Store struct {
	dir   string
	epoch uint64 // current snapshot epoch; 0 = no snapshot yet

	log  *os.File
	logw *bufio.Writer
	// recBuf is Append's reused encode buffer.
	recBuf []byte
}

// Open prepares dir as a checkpoint directory, creating it if needed,
// and probes that it is writable (a daemon asked to checkpoint into a
// read-only directory must fail loudly at startup, not at the first
// batch).
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	probe := filepath.Join(dir, ".probe")
	f, err := os.Create(probe)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: dir %s not writable: %w", dir, err)
	}
	f.Close()
	os.Remove(probe)
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Epoch returns the current snapshot epoch (0 before the first
// snapshot).
func (s *Store) Epoch() uint64 { return s.epoch }

func (s *Store) snapPath(epoch uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("snap-%016x.ckpt", epoch))
}

func (s *Store) logPath(epoch uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("delta-%016x.log", epoch))
}

// corrupt wraps a validation failure as an errors.Is-compatible
// ErrCheckpointCorrupt.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("checkpoint: %w: %s", xerr.ErrCheckpointCorrupt, fmt.Sprintf(format, args...))
}

// Recover scans the directory for the newest valid checkpoint and
// returns its snapshot plus the delta-log records appended after it.
// (nil, nil, nil) means a clean empty directory. A corrupt epoch is
// skipped in favor of an older valid one; if nothing valid remains the
// error wraps xerr.ErrCheckpointCorrupt and the caller starts empty —
// the store itself stays usable either way, positioned so the next
// snapshot gets a fresh epoch above anything seen on disk.
func (s *Store) Recover() (*Snapshot, []Record, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	var epochs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		hexa := strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".ckpt")
		epoch, err := strconv.ParseUint(hexa, 16, 64)
		if err != nil {
			continue
		}
		epochs = append(epochs, epoch)
	}
	if len(epochs) == 0 {
		return nil, nil, nil
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] > epochs[j] })
	// New snapshots must never collide with stale on-disk epochs, valid
	// or not.
	s.epoch = epochs[0]

	var firstErr error
	for _, epoch := range epochs {
		snap, recs, err := s.loadEpoch(epoch)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return snap, recs, nil
	}
	return nil, nil, firstErr
}

// loadEpoch validates and loads one epoch's snapshot + delta log; on
// success the delta log is (re)opened for append, truncated past any
// torn trailing record.
func (s *Store) loadEpoch(epoch uint64) (*Snapshot, []Record, error) {
	snap, err := readSnapshotFile(s.snapPath(epoch))
	if err != nil {
		return nil, nil, err
	}
	if snap.Epoch != epoch {
		return nil, nil, corrupt("snapshot %s claims epoch %d", s.snapPath(epoch), snap.Epoch)
	}
	recs, validLen, err := readLogFile(s.logPath(epoch))
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(s.logPath(epoch), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	if validLen == 0 {
		// Fresh or missing log: (re)write the header.
		if err := f.Truncate(0); err == nil {
			err = writeHeader(f, kindDeltaLog)
		}
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("checkpoint: %w", err)
		}
	} else if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	s.closeLog()
	s.log, s.logw = f, bufio.NewWriter(f)
	return snap, recs, nil
}

// Append buffers one delta record. Records become durable at the next
// Flush or WriteSnapshot — the daemon acknowledges the driver's
// checkpoint mark only after flushing, so anything lost in between is
// still in the driver's replay log.
func (s *Store) Append(r Record) error {
	if s.logw == nil {
		return fmt.Errorf("checkpoint: append before first snapshot")
	}
	var err error
	if s.recBuf, err = wire.Append(s.recBuf[:0], &r); err != nil {
		return fmt.Errorf("checkpoint: encode record: %w", err)
	}
	return writeFramed(s.logw, s.recBuf)
}

// Flush pushes buffered delta records to the file. A completed write is
// durable against process death (the kill-and-restart fault model);
// media-level durability (fsync) is deliberately not paid per batch.
func (s *Store) Flush() error {
	if s.logw == nil {
		return nil
	}
	if err := s.logw.Flush(); err != nil {
		return fmt.Errorf("checkpoint: flush delta log: %w", err)
	}
	return nil
}

// WriteSnapshot persists a full snapshot as the next epoch: temp file,
// sync, atomic rename, then a fresh empty delta log. The previous
// epoch's files are removed afterwards — the snapshot is the log's
// compaction. snap.Epoch is assigned by this call.
func (s *Store) WriteSnapshot(snap *Snapshot) error {
	epoch := s.epoch + 1
	snap.Epoch = epoch

	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		return fmt.Errorf("checkpoint: encode snapshot: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	w := bufio.NewWriter(tmp)
	if err := writeHeader(w, kindSnapshot); err == nil {
		err = writeFramed(w, payload.Bytes())
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("checkpoint: write snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.snapPath(epoch)); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}

	// The snapshot is durable; start the new epoch's empty log and
	// compact the old epoch away.
	logf, err := os.OpenFile(s.logPath(epoch), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := writeHeader(logf, kindDeltaLog); err != nil {
		logf.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.closeLog()
	s.log, s.logw = logf, bufio.NewWriter(logf)
	prev := s.epoch
	s.epoch = epoch
	if prev > 0 {
		os.Remove(s.snapPath(prev))
		os.Remove(s.logPath(prev))
	}
	return nil
}

// Reset discards every checkpoint file and returns the store to epoch
// 0 — a fresh bootstrap by a new session invalidates any state a
// previous session left behind.
func (s *Store) Reset() error {
	s.closeLog()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "snap-") || strings.HasPrefix(name, "delta-") {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
	s.epoch = 0
	return nil
}

// Close flushes and closes the delta log.
func (s *Store) Close() error {
	if s.logw != nil {
		if err := s.logw.Flush(); err != nil {
			s.closeLog()
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	s.closeLog()
	return nil
}

func (s *Store) closeLog() {
	if s.log != nil {
		s.log.Close()
		s.log, s.logw = nil, nil
	}
}

// --- framing ---

func writeHeader(w io.Writer, kind byte) error {
	hdr := [headerLen]byte{magic[0], magic[1], magic[2], magic[3], FormatVersion, kind}
	_, err := w.Write(hdr[:])
	return err
}

// readHeader validates a file header and returns its format version.
func readHeader(r io.Reader, path string, wantKind byte) (byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, corrupt("%s: truncated header", path)
	}
	if hdr[0] != magic[0] || hdr[1] != magic[1] || hdr[2] != magic[2] || hdr[3] != magic[3] {
		return 0, corrupt("%s: bad magic %x", path, hdr[:4])
	}
	if hdr[5] != wantKind {
		return 0, corrupt("%s: file kind %d, want %d", path, hdr[5], wantKind)
	}
	return hdr[4], nil
}

func writeFramed(w io.Writer, payload []byte) error {
	if err := WriteFramed(w, payload); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// errTorn marks an incomplete trailing record: the crash-mid-append
// shape, recoverable by truncating to the preceding record.
var errTorn = ErrTornRecord

// readFramed reads one record, verifying its CRC. io.EOF means a clean
// end; errTorn means the file ends inside a record; a CRC mismatch is
// corruption.
func readFramed(r io.Reader, path string) ([]byte, error) {
	payload, err := ReadFramed(r)
	if errors.Is(err, ErrBadCRC) {
		return nil, corrupt("%s: CRC mismatch", path)
	}
	return payload, err
}

// readSnapshotFile loads and validates one snapshot file: header, one
// complete CRC-valid record, nothing after it. A torn snapshot is
// corruption — unlike the log, a snapshot is all-or-nothing.
func readSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, corrupt("%s: %v", path, err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	version, err := readHeader(r, path, kindSnapshot)
	if err != nil {
		return nil, err
	}
	if version != FormatVersion {
		return nil, corrupt("%s: format version %d, want %d", path, version, FormatVersion)
	}
	payload, err := readFramed(r, path)
	if err != nil {
		if err == io.EOF || errors.Is(err, errTorn) {
			return nil, corrupt("%s: truncated snapshot", path)
		}
		return nil, err
	}
	var snap Snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return nil, corrupt("%s: decode: %v", path, err)
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, corrupt("%s: trailing bytes after snapshot record", path)
	}
	return &snap, nil
}

// readLogFile loads the valid record prefix of a delta log and returns
// it with the byte offset the file should be truncated to. A missing
// log is an empty one (validLen 0 signals "rewrite header"); a torn
// trailing record ends the prefix; a CRC failure or version mismatch
// anywhere is corruption.
func readLogFile(path string) ([]Record, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, corrupt("%s: %v", path, err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	version, err := readHeader(r, path, kindDeltaLog)
	if err != nil {
		return nil, 0, err
	}
	if version != FormatVersion {
		return nil, 0, corrupt("%s: format version %d, want %d (mixed-version snapshot and delta log)", path, version, FormatVersion)
	}
	var recs []Record
	offset := int64(headerLen)
	for {
		payload, err := readFramed(r, path)
		if err == io.EOF {
			return recs, offset, nil
		}
		if errors.Is(err, errTorn) {
			// Crash mid-append: the torn tail was never acknowledged as
			// durable, so the valid prefix is the recovered state.
			return recs, offset, nil
		}
		if err != nil {
			return nil, 0, err
		}
		var rec Record
		if err := wire.Unmarshal(payload, &rec); err != nil {
			return nil, 0, corrupt("%s: decode record: %v", path, err)
		}
		recs = append(recs, rec)
		offset += int64(8 + len(payload))
	}
}
