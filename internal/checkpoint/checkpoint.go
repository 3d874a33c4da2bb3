// Package checkpoint is the durable-state layer of a site daemon:
// versioned, CRC-checksummed, atomically-renamed snapshot files plus an
// append-only delta log, cut into one segment per epoch, of the raw
// calls applied since a snapshot.
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
//	snap-<epoch>.ckpt   header + two CRC-framed records: the positional
//	                    encoding (internal/wire) of the Snapshot without
//	                    its engine blob (epoch, hello, sequence number,
//	                    reply window), then the blob as the engine wrote it
//	delta-<epoch>.log   header + CRC-framed Record records, each the
//	                    positional encoding of the call's seq, method and
//	                    raw payload
//	snap-<epoch>.tmp    a snapshot being written; never read
//
// Both file kinds start with a 6-byte header: magic "RCKP", a format
// version byte and a file-kind byte. Every record is framed as a
// big-endian uint32 payload length, a big-endian uint32 CRC-32 (IEEE) of
// the payload, then the payload.
//
// Epochs and segments. snap-<E> is the state at the moment delta-<E> was
// opened, so the current state is always
//
//	snap-<E′> ⊕ delta-<E′> ⊕ delta-<E′+1> ⊕ … ⊕ delta-<Epoch()>
//
// for the newest snapshot E′ on disk. Compaction (Compact) is a log
// rotation with the snapshot written behind it: the caller hands over
// the state as bytes, the store closes delta-<E>, opens delta-<E+1> and
// advances Epoch() before returning, and one goroutine then writes
// snap-<E+1>.tmp, fsyncs it, renames it into place, syncs the directory
// and only then unlinks every older epoch. Nothing the caller has
// acknowledged waits for that goroutine. Three invariants carry the
// design:
//
//  1. Acknowledged ⇒ flushed in a segment. A record is durable once
//     Flush returns, whatever a compaction in flight goes on to do.
//  2. An epoch's files are unlinked only after a newer snapshot has been
//     renamed into place and the directory synced, so at every instant
//     some snapshot on disk has its complete segment chain beside it.
//  3. At most one compaction is in flight per store, there is no
//     goroutine while idle, and the captured state is dropped when the
//     goroutine returns.
//
// Recovery (Recover) is the layout read backwards: take the newest
// snapshot that validates, replay the consecutive segments from its own
// epoch up to the newest segment on disk, and remove what that
// supersedes. A kill anywhere inside a compaction therefore recovers
// from the older snapshot plus two segments.
//
// Validation is strict in one direction and lenient in the other: a
// truncated or CRC-damaged snapshot, a CRC failure anywhere in a
// segment, a torn record in a segment that is not the last, a missing
// segment in the chain, or a version mismatch between a snapshot and a
// segment invalidates the whole epoch (never load partial state —
// Recover surfaces xerr.ErrCheckpointCorrupt and the daemon starts
// empty, degrading to a full reseed). A torn *trailing* record of the
// *last* segment, by contrast, is the expected shape of a crash
// mid-append: everything before it was already made durable and
// acknowledged, the torn tail never was — so the valid prefix is
// recovered and the file truncated at the tear.
//
// None of these bytes ride the metered protocol streams, so the
// committed wire-meter baselines stay bit-identical whether or not
// checkpointing is on.
package checkpoint

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/wire"
	"repro/internal/xerr"
)

// FormatVersion is the on-disk format version; a snapshot and its
// segments must agree on it. The delta log holds raw call payloads keyed
// by method name and recovery re-dispatches them, so the version also
// moves when a call payload is reshaped or a method is retired (3:
// v.batchResolve carries a stage's node groups; 4: snapshots and engine
// blobs leave gob for the positional codec, the log is cut into
// per-epoch segments; 5: the per-update methods are retired — no layout
// change, but an older log may hold calls nothing handles any more; 6:
// the vertical same-site calls carry id, index and bitset columns, and a
// vertical site's blob no longer stores what it derives from its rules).
const FormatVersion = 6

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
	// by Compact.
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
	// state and mark flags. It is its own record in the file.
	Engine []byte
}

// Step names a point a compaction passes after its rotation; the
// compactor reaches them in this order. Abandon stops it at one.
type Step int32

const (
	// StepRotated: the new segment is open, nothing of the snapshot is
	// on disk.
	StepRotated Step = iota + 1
	// StepTempWritten: snap-<E>.tmp is written and fsynced.
	StepTempWritten
	// StepRenamed: the snapshot is renamed into place; the directory is
	// not synced and the older epoch's files are still there.
	StepRenamed
	// StepDone: directory synced, older epochs unlinked.
	StepDone
)

// Store manages one site's checkpoint directory: the segment being
// appended to and the compaction writing a snapshot behind it. Its
// methods are for one goroutine (the host calls them under its call
// lock); only the compactor runs beside them.
type Store struct {
	dir   string
	epoch uint64 // the segment being appended to; 0 = no snapshot yet

	log  *os.File
	logw *bufio.Writer
	// recBuf is Append's reused encode buffer.
	recBuf []byte

	// done is closed by the compaction in flight when it returns, with
	// compactErr holding its outcome; nil while idle.
	done       chan struct{}
	compactErr error
	// stopAt is the crash point: a compactor reaching a Step at or past
	// it returns there, leaving the directory as a kill at that point
	// would. Zero never stops it. hook, when a test sets it before
	// Compact, is called at every Step first — to arm stopAt, or to hold
	// the compactor there.
	stopAt atomic.Int32
	hook   func(Step)
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

// Epoch returns the current epoch — the segment records are appended
// to, and the snapshot a compaction in flight is writing (0 before the
// first snapshot).
func (s *Store) Epoch() uint64 { return s.epoch }

func (s *Store) snapPath(epoch uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("snap-%016x.ckpt", epoch))
}

func (s *Store) tmpPath(epoch uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("snap-%016x.tmp", epoch))
}

func (s *Store) logPath(epoch uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("delta-%016x.log", epoch))
}

// parseEpoch extracts the epoch of a "<prefix><16 hex digits><suffix>"
// file name.
func parseEpoch(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	epoch, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	return epoch, err == nil
}

// corrupt wraps a validation failure as an errors.Is-compatible
// ErrCheckpointCorrupt.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("checkpoint: %w: %s", xerr.ErrCheckpointCorrupt, fmt.Sprintf(format, args...))
}

// Recover scans the directory for the newest valid checkpoint and
// returns its snapshot plus the records of every segment after it, in
// order. (nil, nil, nil) means a clean empty directory. A corrupt epoch
// is skipped in favor of an older one whose chain is complete; if
// nothing valid remains the error wraps xerr.ErrCheckpointCorrupt and
// the caller starts empty — the store itself stays usable, positioned so
// the next epoch is numbered above anything seen on disk. An I/O failure
// reopening the last segment for append is not corruption and is
// returned as it is, at once: a directory that cannot be written would
// lose every later checkpoint too.
// On success the last segment is open for append, truncated past any
// torn trailing record, and every other epoch's files are removed: the
// older ones the recovered snapshot supersedes, and the newer snapshots
// just refused, which a later rotation must not find beside its segment.
func (s *Store) Recover() (*Snapshot, []Record, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	var snaps []uint64
	var last uint64 // newest segment on disk
	for _, e := range entries {
		name := e.Name()
		if epoch, ok := parseEpoch(name, "snap-", ".ckpt"); ok {
			snaps = append(snaps, epoch)
		} else if epoch, ok := parseEpoch(name, "delta-", ".log"); ok && epoch > last {
			last = epoch
		} else if _, ok := parseEpoch(name, "snap-", ".tmp"); ok {
			// A compaction died before its rename.
			os.Remove(filepath.Join(s.dir, name))
		}
	}
	if len(snaps) == 0 {
		return nil, nil, nil
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })
	// Where the store stands if every epoch is refused: the next epoch
	// must not collide with a stale file, valid or not. A chain that
	// loads moves it to the segment it reopened.
	s.epoch = max(snaps[0], last)

	var firstErr error
	for i, epoch := range snaps {
		snap, recs, err := s.loadChain(epoch, max(epoch, last))
		if err != nil {
			if !errors.Is(err, xerr.ErrCheckpointCorrupt) {
				return nil, nil, err
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for _, refused := range snaps[:i] {
			os.Remove(s.snapPath(refused))
		}
		s.removeBelow(epoch)
		return snap, recs, nil
	}
	return nil, nil, firstErr
}

// loadChain validates and loads snapshot epoch with the segments epoch
// through last; on success segment last is (re)opened for append,
// truncated past any torn trailing record.
func (s *Store) loadChain(epoch, last uint64) (*Snapshot, []Record, error) {
	snap, err := readSnapshotFile(s.snapPath(epoch))
	if err != nil {
		return nil, nil, err
	}
	if snap.Epoch != epoch {
		return nil, nil, corrupt("snapshot %s claims epoch %d", s.snapPath(epoch), snap.Epoch)
	}
	var recs []Record
	var validLen int64
	for seg := epoch; seg <= last; seg++ {
		path := s.logPath(seg)
		segRecs, n, torn, err := readLogFile(path)
		if err != nil {
			return nil, nil, err
		}
		if torn && seg != last {
			// Rotation flushes a segment whole before the next one
			// exists: a tear here is damage, not a crash mid-append.
			return nil, nil, corrupt("%s: torn record in a segment that is not the last", path)
		}
		recs = append(recs, segRecs...)
		validLen = n
	}
	f, err := os.OpenFile(s.logPath(last), os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	if validLen < headerLen {
		// The crash fell between creating the segment and writing its
		// header.
		if err = f.Truncate(0); err == nil {
			err = writeHeader(f, kindDeltaLog)
		}
	} else {
		err = f.Truncate(validLen)
	}
	if err == nil {
		_, err = f.Seek(0, io.SeekEnd)
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	s.closeLog()
	s.log, s.logw = f, bufio.NewWriter(f)
	s.epoch = last
	return snap, recs, nil
}

// removeBelow unlinks every snapshot and segment of an epoch older than
// keep. Best effort: a file left behind is removed by the next
// compaction or recovery.
func (s *Store) removeBelow(keep uint64) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		epoch, ok := parseEpoch(name, "snap-", ".ckpt")
		if !ok {
			epoch, ok = parseEpoch(name, "delta-", ".log")
		}
		if ok && epoch < keep {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}

// Append buffers one delta record. Records become durable at the next
// Flush — the daemon acknowledges the driver's checkpoint mark only
// after flushing, so anything lost in between is still in the driver's
// replay log.
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
// Flush is also where a compaction that failed behind the caller's back
// is reported: its error is returned once, by the first Flush (or Wait)
// after it.
func (s *Store) Flush() error {
	if !s.Compacting() {
		if err := s.Wait(); err != nil {
			return err
		}
	}
	if s.logw == nil {
		return nil
	}
	if err := s.logw.Flush(); err != nil {
		return fmt.Errorf("checkpoint: flush delta log: %w", err)
	}
	return nil
}

// Compact starts the next epoch with snap as its snapshot: it flushes
// and closes the current segment, opens the next one and advances
// Epoch() — all the caller waits for — and then writes the snapshot file
// on a goroutine of its own (see the package comment for the order).
// snap.Epoch is assigned here; snap and everything it references belong
// to the store until the compaction is over. A compaction still in
// flight is waited for first, and its failure returned instead of
// starting another. An error means the rotation did not happen and the
// store is as it was.
func (s *Store) Compact(snap *Snapshot) error {
	if err := s.Wait(); err != nil {
		return err
	}
	if err := s.rotate(); err != nil {
		return err
	}
	snap.Epoch = s.epoch
	done := make(chan struct{})
	s.done = done
	go func() {
		defer close(done)
		s.compactErr = s.writeSnapshot(snap)
	}()
	return nil
}

// Compacting reports whether a compaction is in flight.
func (s *Store) Compacting() bool {
	if s.done == nil {
		return false
	}
	select {
	case <-s.done:
		return false
	default:
		return true
	}
}

// Wait blocks until no compaction is in flight and returns the error of
// the one that finished, once.
func (s *Store) Wait() error {
	if s.done == nil {
		return nil
	}
	<-s.done
	err := s.compactErr
	s.done, s.compactErr = nil, nil
	return err
}

// rotate makes segment epoch+1 the one appended to. The old segment is
// flushed whole before the new one is created, so a segment that has a
// successor never ends in a torn record.
func (s *Store) rotate() error {
	if s.logw != nil {
		if err := s.logw.Flush(); err != nil {
			return fmt.Errorf("checkpoint: flush delta log: %w", err)
		}
	}
	next := s.epoch + 1
	logf, err := os.OpenFile(s.logPath(next), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := writeHeader(logf, kindDeltaLog); err != nil {
		logf.Close()
		os.Remove(s.logPath(next))
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.closeLog()
	s.log, s.logw = logf, bufio.NewWriter(logf)
	s.epoch = next
	return nil
}

// stopped reports whether the crash-point hook ends the compaction at
// step.
func (s *Store) stopped(step Step) bool {
	if s.hook != nil {
		s.hook(step)
	}
	at := Step(s.stopAt.Load())
	return at != 0 && at <= step
}

// writeSnapshot is the compactor: temp file, fsync, rename, directory
// sync, and only then the older epochs' unlinks.
func (s *Store) writeSnapshot(snap *Snapshot) error {
	if s.stopped(StepRotated) {
		return nil
	}
	// The first record is the snapshot without its blob, which follows
	// as it is instead of being copied into a second encoding.
	head := *snap
	head.Engine = nil
	meta, err := wire.Marshal(&head)
	if err != nil {
		return fmt.Errorf("checkpoint: encode snapshot: %w", err)
	}
	tmpPath := s.tmpPath(snap.Epoch)
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	w := bufio.NewWriter(tmp)
	if err = writeHeader(w, kindSnapshot); err == nil {
		err = writeFramed(w, meta)
	}
	if err == nil {
		err = writeFramed(w, snap.Engine)
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
		os.Remove(tmpPath)
		return fmt.Errorf("checkpoint: write snapshot: %w", err)
	}
	if s.stopped(StepTempWritten) {
		return nil
	}
	if err := os.Rename(tmpPath, s.snapPath(snap.Epoch)); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if s.stopped(StepRenamed) {
		return nil
	}
	// The rename must be on disk before anything it supersedes goes.
	d, err := os.Open(s.dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("checkpoint: sync directory: %w", err)
	}
	s.removeBelow(snap.Epoch)
	return nil
}

// Abandon is process death for a store that lives inside a test or a
// recovery sweep: a compaction in flight goes no further than step, its
// goroutine is waited for, and the segment's file is closed with its
// buffered tail unwritten — what a kill leaves behind. Dropping a store
// instead would let its compactor race the successor opened on the same
// directory. The store is dead afterwards.
func (s *Store) Abandon(step Step) {
	s.stopAt.Store(int32(step))
	if s.done != nil {
		<-s.done
	}
	s.closeLog()
}

// Reset discards every checkpoint file and returns the store to epoch
// 0 — a fresh bootstrap by a new session invalidates any state a
// previous session left behind.
func (s *Store) Reset() error {
	s.Wait() // its outcome dies with the files it wrote
	s.closeLog()
	s.epoch = 0
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
	return nil
}

// Close waits for a compaction in flight, then flushes and closes the
// segment. It returns the first failure among them.
func (s *Store) Close() error {
	err := s.Wait()
	if s.logw != nil {
		if ferr := s.logw.Flush(); ferr != nil && err == nil {
			err = fmt.Errorf("checkpoint: %w", ferr)
		}
	}
	s.closeLog()
	return err
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

// errShortHeader marks a file that ends inside its header.
var errShortHeader = errors.New("truncated header")

// readHeader validates a file header: magic, kind and format version.
// errShortHeader is returned bare.
func readHeader(r io.Reader, path string, wantKind byte) error {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return errShortHeader
	}
	if hdr[0] != magic[0] || hdr[1] != magic[1] || hdr[2] != magic[2] || hdr[3] != magic[3] {
		return corrupt("%s: bad magic %x", path, hdr[:4])
	}
	if hdr[5] != wantKind {
		return corrupt("%s: file kind %d, want %d", path, hdr[5], wantKind)
	}
	if hdr[4] != FormatVersion {
		return corrupt("%s: format version %d, want %d", path, hdr[4], FormatVersion)
	}
	return nil
}

func writeFramed(w io.Writer, payload []byte) error {
	if err := WriteFramed(w, payload); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// readFramed reads one record, verifying its CRC. io.EOF means a clean
// end; ErrTornRecord means the file ends inside a record; a CRC mismatch
// is corruption.
func readFramed(r io.Reader, path string) ([]byte, error) {
	payload, err := ReadFramed(r)
	if errors.Is(err, ErrBadCRC) {
		return nil, corrupt("%s: CRC mismatch", path)
	}
	return payload, err
}

// readSnapshotFile loads and validates one snapshot file: header, two
// complete CRC-valid records, nothing after them. A torn snapshot is
// corruption — unlike the log, a snapshot is all-or-nothing.
func readSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, corrupt("%s: %v", path, err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	if err := readHeader(r, path, kindSnapshot); err != nil {
		if err == errShortHeader {
			return nil, corrupt("%s: truncated header", path)
		}
		return nil, err
	}
	var recs [2][]byte
	for i := range recs {
		if recs[i], err = readFramed(r, path); err != nil {
			if err == io.EOF || errors.Is(err, ErrTornRecord) {
				return nil, corrupt("%s: truncated snapshot", path)
			}
			return nil, err
		}
	}
	var snap Snapshot
	if err := wire.Unmarshal(recs[0], &snap); err != nil {
		return nil, corrupt("%s: decode: %v", path, err)
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, corrupt("%s: trailing bytes after snapshot records", path)
	}
	snap.Engine = recs[1]
	return &snap, nil
}

// readLogFile loads the valid record prefix of one segment and returns
// it with the byte offset the prefix ends at. torn reports that the file
// ends inside its header or a record — the caller decides whether this
// segment may; a missing segment, a CRC failure or a version mismatch is
// corruption wherever it is.
func readLogFile(path string) (recs []Record, validLen int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, false, corrupt("%s: segment missing from the chain", path)
		}
		return nil, 0, false, corrupt("%s: %v", path, err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	if err := readHeader(r, path, kindDeltaLog); err != nil {
		if err == errShortHeader {
			return nil, 0, true, nil
		}
		return nil, 0, false, err
	}
	validLen = headerLen
	for {
		payload, err := readFramed(r, path)
		if err == io.EOF {
			return recs, validLen, false, nil
		}
		if errors.Is(err, ErrTornRecord) {
			// Crash mid-append: the torn tail was never acknowledged as
			// durable, so the valid prefix is the recovered state.
			return recs, validLen, true, nil
		}
		if err != nil {
			return nil, 0, false, err
		}
		var rec Record
		if err := wire.Unmarshal(payload, &rec); err != nil {
			return nil, 0, false, corrupt("%s: decode record: %v", path, err)
		}
		recs = append(recs, rec)
		validLen += int64(FrameOverhead + len(payload))
	}
}
