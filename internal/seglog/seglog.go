// Package seglog is the one durable log of the repository: a directory
// holding a snapshot and the segments of records appended since, with
// one header check, one torn-tail rule, one compactor and one corruption
// policy. Site checkpoints (internal/checkpoint) and the driver journal
// (internal/journal) are typed records over a Log; the page store
// (internal/storage) frames its one file with the same header, scanner
// and atomic replace. A client differs only in its Format.
//
// DESIGN.md §11 is the statement of the format: the header and frame,
// the chain snap-<E′> ⊕ delta-<E′> ⊕ … ⊕ delta-<Epoch()>, the compactor's
// Steps, the three invariants (acknowledged ⇒ flushed in a segment; an
// epoch is unlinked only after a newer snapshot is renamed and the
// directory synced; one compaction in flight, no goroutine while idle)
// and the one recovery rule that Recover implements.
package seglog

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// File kinds, so a snapshot and a segment cannot be read as each other.
const (
	KindSnapshot byte = 1
	KindSegment  byte = 2
)

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

// Log manages one directory: the segment being appended to and the
// compaction writing a snapshot behind it. Its methods are for one
// goroutine; only the compactor runs beside them.
type Log struct {
	f     Format
	dir   string
	epoch uint64 // the segment being appended to; 0 = no snapshot yet

	seg *os.File
	w   *bufio.Writer

	// done is closed by the compaction in flight when it returns, with
	// compactErr holding its outcome; nil while idle.
	done       chan struct{}
	compactErr error
	// stopAt is the crash point: a compactor reaching a Step at or past
	// it returns there, leaving the directory as a kill at that point
	// would. Zero never stops it.
	stopAt atomic.Int32
}

// Open prepares dir, creating it if needed, and probes that it is
// writable: a daemon told to log into a read-only directory must fail at
// start-up, not at the first batch.
func Open(dir string, f Format) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, f.errorf("%w", err)
	}
	probe := filepath.Join(dir, ".probe")
	file, err := os.Create(probe)
	if err != nil {
		return nil, f.errorf("dir %s not writable: %w", dir, err)
	}
	file.Close()
	os.Remove(probe)
	return &Log{f: f, dir: dir}, nil
}

// Epoch returns the current epoch — the segment records are appended to,
// and the snapshot a compaction in flight is writing (0 before the first).
func (l *Log) Epoch() uint64 { return l.epoch }

func (l *Log) path(format string, epoch uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf(format, epoch))
}

const (
	snapName = "snap-%016x.ckpt"
	tmpName  = "snap-%016x.tmp"
	segName  = "delta-%016x.log"
)

// files calls fn for every file of the log in the directory, with its
// epoch and its extension: ".ckpt", ".log" or ".tmp".
func (l *Log) files(fn func(path string, epoch uint64, ext string)) error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return l.f.errorf("%w", err)
	}
	for _, e := range entries {
		ext, prefix := filepath.Ext(e.Name()), "snap-"
		switch ext {
		case ".log":
			prefix = "delta-"
		case ".ckpt", ".tmp":
		default:
			continue
		}
		hex, ok := strings.CutPrefix(strings.TrimSuffix(e.Name(), ext), prefix)
		if epoch, err := strconv.ParseUint(hex, 16, 64); ok && err == nil {
			fn(filepath.Join(l.dir, e.Name()), epoch, ext)
		}
	}
	return nil
}

// Recover returns the newest snapshot whose chain is complete — its
// epoch, its records (how many there must be is the caller's to check),
// and the records of every segment after it in order. Epoch 0 with no
// error means a directory without a snapshot. If every epoch is refused
// the error wraps the Format's Corrupt and the Log stays usable,
// positioned so the next epoch is numbered above anything seen on disk.
// An I/O failure reopening the last segment for append is not corruption
// and is returned at once: a directory that cannot be written would lose
// every later record too. On success the last segment is open for
// append, truncated past any torn trailing record, and every other
// epoch's files are removed: the older ones the recovered snapshot
// supersedes, and the newer snapshots just refused, which a later
// rotation must not find beside its segment.
func (l *Log) Recover() (epoch uint64, snap, recs [][]byte, err error) {
	var snaps []uint64
	var last uint64 // newest segment on disk
	err = l.files(func(path string, epoch uint64, ext string) {
		switch ext {
		case ".ckpt":
			snaps = append(snaps, epoch)
		case ".log":
			last = max(last, epoch)
		default: // a compaction died before its rename
			os.Remove(path)
		}
	})
	if err != nil || len(snaps) == 0 {
		return 0, nil, nil, err
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })
	// Where the log stands if every epoch is refused: the next epoch must
	// not collide with a stale file, valid or not. A chain that loads
	// moves it to the segment it reopened.
	l.epoch = max(snaps[0], last)

	var firstErr error
	for i, epoch := range snaps {
		snap, recs, err := l.loadChain(epoch, max(epoch, last))
		if err != nil {
			if !errors.Is(err, l.f.Corrupt) {
				return 0, nil, nil, err
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for _, refused := range snaps[:i] {
			os.Remove(l.path(snapName, refused))
		}
		l.removeBelow(epoch)
		return epoch, snap, recs, nil
	}
	return 0, nil, nil, firstErr
}

// readFile scans one file whole and returns its records.
func (l *Log) readFile(path string, kind byte) (recs [][]byte, valid int64, torn bool, err error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, 0, false, l.f.Corruptf("missing from the chain: %v", err)
	}
	defer file.Close()
	valid, torn, err = l.f.Scan(file, kind, func(_ int64, payload []byte) error {
		recs = append(recs, payload)
		return nil
	})
	return recs, valid, torn, err
}

// loadChain loads snapshot epoch with the segments epoch through last;
// on success segment last is (re)opened for append, truncated past any
// torn trailing record.
func (l *Log) loadChain(epoch, last uint64) (snap, recs [][]byte, err error) {
	snap, _, torn, err := l.readFile(l.path(snapName, epoch), KindSnapshot)
	if err != nil {
		return nil, nil, err
	}
	if torn {
		// Unlike a segment, a snapshot is all or nothing.
		return nil, nil, l.f.Corruptf("%s: truncated snapshot", l.path(snapName, epoch))
	}
	var validLen int64
	for seg := epoch; seg <= last; seg++ {
		segRecs, n, torn, err := l.readFile(l.path(segName, seg), KindSegment)
		if err != nil {
			return nil, nil, err
		}
		if torn && seg != last {
			// Rotation flushes a segment whole before the next one
			// exists: a tear here is damage, not a crash mid-append.
			return nil, nil, l.f.Corruptf("%s: torn record in a segment that is not the last", l.path(segName, seg))
		}
		recs = append(recs, segRecs...)
		validLen = n
	}
	// Scan left validLen 0 when the crash fell between creating the
	// segment and writing its header.
	path := l.path(segName, last)
	file, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil {
		if err = file.Truncate(validLen); err == nil && validLen == 0 {
			err = l.f.WriteHeader(file, KindSegment)
		}
		if err != nil {
			file.Close()
		}
	}
	if err != nil {
		return nil, nil, l.f.errorf("%w", err)
	}
	l.closeSegment()
	l.seg, l.w = file, bufio.NewWriter(file)
	l.epoch = last
	return snap, recs, nil
}

// removeBelow unlinks every file of an epoch older than keep. Best
// effort: a file left behind is removed by the next compaction or
// recovery.
func (l *Log) removeBelow(keep uint64) {
	l.files(func(path string, epoch uint64, _ string) {
		if epoch < keep {
			os.Remove(path)
		}
	})
}

// Append buffers one record. Records become durable at the next Flush.
func (l *Log) Append(payload []byte) error {
	if l.w == nil {
		return l.f.errorf("append before first snapshot")
	}
	if err := WriteFramed(l.w, payload); err != nil {
		return l.f.errorf("append: %w", err)
	}
	return nil
}

// Flush pushes buffered records to the segment's file. Flush is also
// where a compaction that failed behind the caller's back is reported:
// its error is returned once, by the first Flush (or Wait) after it.
func (l *Log) Flush() error {
	if !l.Compacting() {
		if err := l.Wait(); err != nil {
			return err
		}
	}
	return l.flushSegment()
}

// flushSegment writes the segment's buffered records to its file.
func (l *Log) flushSegment() error {
	if l.w == nil {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return l.f.errorf("flush segment: %w", err)
	}
	return nil
}

// Compact starts epoch Epoch()+1: it flushes and closes the current
// segment, opens the next one and advances Epoch() — all the caller waits
// for — and then, on a goroutine of its own, calls snapshot for the new
// epoch's snapshot records and writes them out. Whatever snapshot
// references belongs to the Log until the compaction is over. A
// compaction still in flight is waited for first, and its failure
// returned instead of starting another. An error means the rotation did
// not happen and the Log is as it was.
func (l *Log) Compact(snapshot func() ([][]byte, error)) error {
	if err := l.Wait(); err != nil {
		return err
	}
	if err := l.rotate(); err != nil {
		return err
	}
	done, epoch := make(chan struct{}), l.epoch
	l.done = done
	go func() {
		defer close(done)
		l.compactErr = l.writeSnapshot(epoch, snapshot)
	}()
	return nil
}

// Compacting reports whether a compaction is in flight.
func (l *Log) Compacting() bool {
	select {
	case <-l.done: // closed; a nil channel is never ready
		return false
	default:
		return l.done != nil
	}
}

// Wait blocks until no compaction is in flight and returns the error of
// the one that finished, once.
func (l *Log) Wait() error {
	if l.done == nil {
		return nil
	}
	<-l.done
	err := l.compactErr
	l.done, l.compactErr = nil, nil
	return err
}

// rotate makes segment epoch+1 the one appended to. The old segment is
// flushed whole before the new one is created, so a segment that has a
// successor never ends in a torn record.
func (l *Log) rotate() error {
	if err := l.flushSegment(); err != nil {
		return err
	}
	path := l.path(segName, l.epoch+1)
	file, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return l.f.errorf("%w", err)
	}
	if err := l.f.WriteHeader(file, KindSegment); err != nil {
		file.Close()
		os.Remove(path)
		return l.f.errorf("%w", err)
	}
	l.closeSegment()
	l.seg, l.w = file, bufio.NewWriter(file)
	l.epoch++
	return nil
}

// stopped reports whether the crash point ends the compaction at step.
func (l *Log) stopped(step Step) bool {
	at := Step(l.stopAt.Load())
	return at != 0 && at <= step
}

// writeSnapshot is the compactor: the snapshot replaces nothing but is
// written like a replacement, and only then do the older epochs go.
func (l *Log) writeSnapshot(epoch uint64, snapshot func() ([][]byte, error)) error {
	if l.stopped(StepRotated) {
		return nil
	}
	recs, err := snapshot()
	if err != nil {
		return l.f.errorf("encode snapshot: %w", err)
	}
	err = replace(l.path(tmpName, epoch), l.path(snapName, epoch), func(w *bufio.Writer) error {
		err := l.f.WriteHeader(w, KindSnapshot)
		for i := 0; err == nil && i < len(recs); i++ {
			err = WriteFramed(w, recs[i])
		}
		return err
	}, l.stopped)
	if err != nil {
		return l.f.errorf("%w", err)
	}
	// A crash point is armed once and stays: one that cut replace short
	// still answers here.
	if !l.stopped(StepRenamed) {
		l.removeBelow(epoch)
	}
	return nil
}

// Replace writes a file so that a crash at any point leaves either the
// old contents of path or the new, never a mix: write fills tmp, which is
// fsynced, renamed over path, and the directory synced.
func Replace(tmp, path string, write func(w *bufio.Writer) error) error {
	return replace(tmp, path, write, func(Step) bool { return false })
}

// replace is Replace with the compactor's crash points: it returns early,
// as a kill there would, when stopped says so.
func replace(tmp, path string, write func(w *bufio.Writer) error, stopped func(Step) bool) error {
	file, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(file)
	if err = write(w); err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = file.Sync()
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("write %s: %w", tmp, err)
	}
	if stopped(StepTempWritten) {
		return nil
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if stopped(StepRenamed) {
		return nil
	}
	// The rename must be on disk before anything it supersedes goes.
	d, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("sync directory: %w", err)
	}
	return nil
}

// StopAt arms the crash point of an in-process kill: a compaction in
// flight, or started later, goes no further than step.
func (l *Log) StopAt(step Step) { l.stopAt.Store(int32(step)) }

// Abandon is process death for a Log that lives inside a test or a
// recovery sweep: the compactor stops at step (StopAt) and is waited for,
// and the segment's file is closed with its buffered tail unwritten —
// what a kill leaves behind. Dropping a Log instead would let its
// compactor race the successor opened on the same directory.
func (l *Log) Abandon(step Step) {
	l.StopAt(step)
	l.Wait() // its outcome dies with the process
	l.closeSegment()
}

// Reset discards every file of the log and returns it to epoch 0.
func (l *Log) Reset() error {
	l.Wait() // its outcome dies with the files it wrote
	l.closeSegment()
	l.epoch = 0
	return l.files(func(path string, _ uint64, _ string) { os.Remove(path) })
}

// Close waits for a compaction in flight, then flushes and closes the
// segment. It returns the first failure among them.
func (l *Log) Close() error {
	err := l.Wait()
	if ferr := l.flushSegment(); err == nil {
		err = ferr
	}
	l.closeSegment()
	return err
}

func (l *Log) closeSegment() {
	if l.seg != nil {
		l.seg.Close()
		l.seg, l.w = nil, nil
	}
}
