package seglog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The tests speak an opaque-bytes format of their own: nothing here
// knows what a checkpoint or a journal puts in a record.
var errTestCorrupt = errors.New("test log corrupt")

var testFormat = Format{Magic: [4]byte{'T', 'L', 'O', 'G'}, Version: 3, Name: "testlog", Corrupt: errTestCorrupt}

// model is the toy replicated state the tests drive a log with: the
// state is the list of numbers applied, a snapshot is that list rendered
// as one record, and a segment record replays by appending its number —
// the snapshot-plus-replay contract both clients have.
type model struct {
	t       *testing.T
	log     *Log
	applied []string
}

func openModel(t *testing.T, dir string) *model {
	t.Helper()
	log, err := Open(dir, testFormat)
	if err != nil {
		t.Fatal(err)
	}
	return &model{t: t, log: log}
}

// call applies and logs calls from..to, then flushes.
func (m *model) call(from, to int) {
	m.t.Helper()
	for seq := from; seq <= to; seq++ {
		m.applied = append(m.applied, fmt.Sprint(seq))
		if err := m.log.Append([]byte(fmt.Sprint(seq))); err != nil {
			m.t.Fatal(err)
		}
	}
	if err := m.log.Flush(); err != nil {
		m.t.Fatal(err)
	}
}

// compact starts a compaction of the current state.
func (m *model) compact() {
	m.t.Helper()
	blob := []byte(strings.Join(m.applied, " "))
	if err := m.log.Compact(func() ([][]byte, error) { return [][]byte{blob}, nil }); err != nil {
		m.t.Fatal(err)
	}
}

// compactSync runs one compaction to the end.
func (m *model) compactSync() {
	m.t.Helper()
	m.compact()
	if err := m.log.Wait(); err != nil {
		m.t.Fatal(err)
	}
}

// recovered opens dir afresh and returns the state recovery rebuilds
// (snapshot plus replayed records, space-separated), the snapshot's
// epoch, the records replayed and the log's current epoch.
func recovered(t *testing.T, dir string) (state string, snapEpoch uint64, replayed int, epoch uint64, err error) {
	t.Helper()
	log, err := Open(dir, testFormat)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	snapEpoch, snap, recs, err := log.Recover()
	if err != nil || snapEpoch == 0 {
		if snap != nil || recs != nil {
			t.Fatalf("Recover returned state with epoch %d, err %v", snapEpoch, err)
		}
		return "", 0, 0, 0, err
	}
	if len(snap) != 1 {
		t.Fatalf("snapshot holds %d records, want 1", len(snap))
	}
	applied := strings.Fields(string(snap[0]))
	for _, r := range recs {
		applied = append(applied, string(r))
	}
	return strings.Join(applied, " "), snapEpoch, len(recs), log.Epoch(), nil
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func snapFile(epoch int) string { return fmt.Sprintf(snapName, epoch) }
func segFile(epoch int) string  { return fmt.Sprintf(segName, epoch) }

func TestRoundTripAndAppendAfterRecover(t *testing.T) {
	dir := t.TempDir()
	m := openModel(t, dir)
	m.compactSync()
	m.call(1, 3)
	m.log.Close()

	log, err := Open(dir, testFormat)
	if err != nil {
		t.Fatal(err)
	}
	if epoch, _, recs, err := log.Recover(); err != nil || epoch != 1 || len(recs) != 3 {
		t.Fatalf("Recover = epoch %d, %d records, err %v", epoch, len(recs), err)
	}
	if err := log.Append([]byte("4")); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if state, _, _, _, err := recovered(t, dir); err != nil || state != "1 2 3 4" {
		t.Fatalf("after re-append: state %q, err %v", state, err)
	}
}

func TestEmptyDirRecoversClean(t *testing.T) {
	state, epoch, _, _, err := recovered(t, t.TempDir())
	if state != "" || epoch != 0 || err != nil {
		t.Fatalf("empty dir: state %q epoch %d err %v", state, epoch, err)
	}
}

func TestOpenUnwritableDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: permission bits are not enforced")
	}
	dir := filepath.Join(t.TempDir(), "ro")
	if err := os.Mkdir(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testFormat); err == nil || !strings.Contains(err.Error(), "not writable") {
		t.Fatalf("Open on a read-only dir: %v, want a not-writable error", err)
	}
}

// TestCompactionCrashPoints kills the compactor at each of its steps and
// recovers on the same directory: every record flushed before the kill —
// in the rotated segment or the one after — must come back, from the
// older snapshot plus two segments until the new snapshot is in place
// and from the new one afterwards, and the state must equal that of a
// twin whose compaction ran to the end.
func TestCompactionCrashPoints(t *testing.T) {
	// History: snapshot 1 of nothing, calls 1-4, compaction (epoch 2),
	// calls 5-6 into the new segment, kill.
	run := func(t *testing.T, stopAt Step) string {
		dir := t.TempDir()
		m := openModel(t, dir)
		m.compactSync()
		m.call(1, 4)
		m.log.StopAt(stopAt)
		m.compact()
		if got := m.log.Epoch(); got != 2 {
			t.Fatalf("epoch after the rotation = %d, want 2 before the snapshot exists", got)
		}
		m.call(5, 6)
		m.log.Abandon(stopAt)
		return dir
	}
	twinState, twinEpoch, twinReplayed, _, err := recovered(t, run(t, 0))
	if err != nil || twinEpoch != 2 || twinReplayed != 2 {
		t.Fatalf("uncrashed twin recovered epoch %d with %d records (err %v), want epoch 2 and 2", twinEpoch, twinReplayed, err)
	}
	both := []string{segFile(1), segFile(2), snapFile(1)}
	newer := []string{segFile(2), snapFile(2)}
	cases := []struct {
		step         Step
		name         string
		wantSnap     uint64
		wantReplayed int
		wantFiles    []string
	}{
		{StepRotated, "after rotation", 1, 6, both},
		{StepTempWritten, "after the temp write", 1, 6, both},
		{StepRenamed, "after the rename", 2, 2, newer},
		{StepDone, "after the unlinks", 2, 2, newer},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := run(t, tc.step)
			state, snapEpoch, replayed, epoch, err := recovered(t, dir)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if state != twinState {
				t.Fatalf("recovered state %s, uncrashed twin %s", state, twinState)
			}
			if snapEpoch != tc.wantSnap || replayed != tc.wantReplayed || epoch != 2 {
				t.Fatalf("recovered from snapshot %d with %d records at epoch %d, want snapshot %d, %d records, epoch 2",
					snapEpoch, replayed, epoch, tc.wantSnap, tc.wantReplayed)
			}
			// Recovery leaves exactly the chain it loaded: no temp file,
			// nothing superseded.
			if got := dirNames(t, dir); !reflect.DeepEqual(got, tc.wantFiles) {
				t.Fatalf("directory after recovery = %v, want %v", got, tc.wantFiles)
			}
		})
	}
}

// TestRecoverAfterCrashedCompactionCompactsAgain: a log recovered from
// the older snapshot plus two segments keeps appending to the second and
// its next compaction supersedes all three files.
func TestRecoverAfterCrashedCompactionCompactsAgain(t *testing.T) {
	dir := t.TempDir()
	m := openModel(t, dir)
	m.compactSync()
	m.call(1, 2)
	m.log.StopAt(StepRotated)
	m.compact()
	m.call(3, 3)
	m.log.Abandon(StepRotated)

	m2 := openModel(t, dir)
	defer m2.log.Close()
	epoch, _, recs, err := m2.log.Recover()
	if err != nil || epoch != 1 || len(recs) != 3 || m2.log.Epoch() != 2 {
		t.Fatalf("Recover = snapshot %d, %d records, epoch %d, err %v", epoch, len(recs), m2.log.Epoch(), err)
	}
	if err := m2.log.Append([]byte("4")); err != nil {
		t.Fatal(err)
	}
	m2.compactSync()
	if got, want := dirNames(t, dir), []string{segFile(3), snapFile(3)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("directory after the next compaction = %v, want %v", got, want)
	}
}

// buildChain leaves snapshot 1 and segments 1 (calls 1-3), 2 (calls 4-6)
// and 3 (calls 7-9): both compactions died before writing anything.
func buildChain(t *testing.T) string {
	dir := t.TempDir()
	m := openModel(t, dir)
	m.compactSync()
	m.log.StopAt(StepRotated)
	m.call(1, 3)
	m.compact()
	m.call(4, 6)
	m.compact()
	m.call(7, 9)
	m.log.Abandon(StepRotated)
	return dir
}

// TestRecoverRefusesIncompleteChain: recovery never loads a snapshot
// whose segment chain is damaged anywhere but at the tail of its last
// segment.
func TestRecoverRefusesIncompleteChain(t *testing.T) {
	cases := []struct {
		name         string
		damage       func(t *testing.T, dir string)
		wantReplayed int // -1: the Corrupt sentinel, nothing loaded
	}{
		{"intact", func(*testing.T, string) {}, 9},
		{"torn tail in the last segment", func(t *testing.T, dir string) {
			truncateTail(t, filepath.Join(dir, segFile(3)), 1)
		}, 8},
		{"last segment torn inside its header", func(t *testing.T, dir string) {
			truncateTo(t, filepath.Join(dir, segFile(3)), 2)
		}, 6},
		{"last segment torn inside a frame header", func(t *testing.T, dir string) {
			truncateTo(t, filepath.Join(dir, segFile(3)), HeaderLen+4)
		}, 6},
		{"torn tail in a middle segment", func(t *testing.T, dir string) {
			truncateTail(t, filepath.Join(dir, segFile(2)), 1)
		}, -1},
		{"torn tail in the first segment", func(t *testing.T, dir string) {
			truncateTail(t, filepath.Join(dir, segFile(1)), 1)
		}, -1},
		{"CRC damage in a middle segment", func(t *testing.T, dir string) {
			flipByte(t, filepath.Join(dir, segFile(2)), HeaderLen+FrameOverhead)
		}, -1},
		{"CRC damage in the last segment", func(t *testing.T, dir string) {
			flipByte(t, filepath.Join(dir, segFile(3)), HeaderLen+FrameOverhead)
		}, -1},
		{"missing middle segment", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, segFile(2))); err != nil {
				t.Fatal(err)
			}
		}, -1},
		{"missing first segment", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, segFile(1))); err != nil {
				t.Fatal(err)
			}
		}, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := buildChain(t)
			tc.damage(t, dir)
			state, snapEpoch, replayed, epoch, err := recovered(t, dir)
			if tc.wantReplayed < 0 {
				if !errors.Is(err, errTestCorrupt) || state != "" {
					t.Fatalf("Recover = state %q, err %v; want the Corrupt sentinel and nothing loaded", state, err)
				}
				return
			}
			if err != nil || snapEpoch != 1 || replayed != tc.wantReplayed || epoch != 3 {
				t.Fatalf("Recover = snapshot %d, %d records, epoch %d, err %v; want snapshot 1, %d records, epoch 3",
					snapEpoch, replayed, epoch, err, tc.wantReplayed)
			}
		})
	}
}

// TestCorruptFiles is the header and snapshot half of the damage table,
// on a directory of one epoch: every shape is refused with the sentinel.
// (A snapshot cut at a record boundary frames correctly; the client, who
// knows how many records it wrote, refuses that one.)
func TestCorruptFiles(t *testing.T) {
	cases := []struct {
		name   string
		damage func(t *testing.T, snap, seg string)
	}{
		{"truncated snapshot", func(t *testing.T, snap, _ string) { truncateTail(t, snap, 2) }},
		{"snapshot truncated inside its header", func(t *testing.T, snap, _ string) { truncateTo(t, snap, 3) }},
		{"snapshot bad CRC", func(t *testing.T, snap, _ string) { flipByte(t, snap, -1) }},
		{"snapshot bad magic", func(t *testing.T, snap, _ string) { flipByte(t, snap, 0) }},
		{"snapshot trailing bytes", func(t *testing.T, snap, _ string) { appendBytes(t, snap, []byte{0}) }},
		{"future-version snapshot", func(t *testing.T, snap, _ string) { setByte(t, snap, 4, testFormat.Version+1) }},
		{"previous-version snapshot", func(t *testing.T, snap, _ string) { setByte(t, snap, 4, testFormat.Version-1) }},
		{"snapshot of segment kind", func(t *testing.T, snap, _ string) { setByte(t, snap, 5, KindSegment) }},
		{"segment bad magic", func(t *testing.T, _, seg string) { flipByte(t, seg, 0) }},
		{"mixed-version snapshot and segment", func(t *testing.T, _, seg string) { setByte(t, seg, 4, testFormat.Version+1) }},
		{"segment of snapshot kind", func(t *testing.T, _, seg string) { setByte(t, seg, 5, KindSnapshot) }},
		{"segment bad CRC mid-file", func(t *testing.T, _, seg string) { flipByte(t, seg, HeaderLen+FrameOverhead) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m := openModel(t, dir)
			m.applied = []string{"0"} // something for the first snapshot to hold
			m.compactSync()
			m.call(1, 3)
			m.log.Close()
			tc.damage(t, filepath.Join(dir, snapFile(1)), filepath.Join(dir, segFile(1)))
			if state, _, _, _, err := recovered(t, dir); !errors.Is(err, errTestCorrupt) || state != "" {
				t.Fatalf("Recover = state %q, err %v; want the Corrupt sentinel and nothing loaded", state, err)
			}
		})
	}
}

// TestRecoverFallsBackToOlderCompleteEpoch: a kill between the rename
// and the unlinks leaves both epochs on disk; if the newer snapshot then
// fails validation, the older one still has its whole chain beside it,
// the refused snapshot is removed, and the next epoch is the one after
// the recovered segment.
func TestRecoverFallsBackToOlderCompleteEpoch(t *testing.T) {
	dir := t.TempDir()
	m := openModel(t, dir)
	m.compactSync()
	m.call(1, 3)
	m.log.StopAt(StepRenamed)
	m.compact()
	m.call(4, 5)
	m.log.Abandon(StepRenamed)
	flipByte(t, filepath.Join(dir, snapFile(2)), -1)

	state, snapEpoch, replayed, epoch, err := recovered(t, dir)
	if err != nil || snapEpoch != 1 || replayed != 5 || epoch != 2 || state != "1 2 3 4 5" {
		t.Fatalf("Recover = state %s from snapshot %d, %d records, epoch %d, err %v; want 1..5 from snapshot 1 over both segments",
			state, snapEpoch, replayed, epoch, err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapFile(2))); !os.IsNotExist(err) {
		t.Fatalf("refused snapshot still on disk (stat err %v)", err)
	}
}

// TestRefusedDirectoryNumbersAboveIt: when nothing loads, the log stays
// usable and its next epoch collides with no stale file.
func TestRefusedDirectoryNumbersAboveIt(t *testing.T) {
	dir := buildChain(t)
	flipByte(t, filepath.Join(dir, snapFile(1)), -1)
	m := openModel(t, dir)
	defer m.log.Close()
	if _, _, _, err := m.log.Recover(); !errors.Is(err, errTestCorrupt) {
		t.Fatalf("Recover err = %v, want the Corrupt sentinel", err)
	}
	m.compactSync()
	if m.log.Epoch() != 4 {
		t.Fatalf("epoch after a refused directory = %d, want 4 (above segment 3)", m.log.Epoch())
	}
}

// TestOneCompactionInFlight: while a compactor is held, the log says so
// and a second Compact waits for it instead of starting another; once it
// is over no goroutine is left.
func TestOneCompactionInFlight(t *testing.T) {
	m := openModel(t, t.TempDir())
	defer m.log.Close()
	m.compactSync()
	runtime.GC()
	idle := runtime.NumGoroutine()

	// The snapshot callback runs on the compactor, after the rotation:
	// blocking in it holds the compaction at StepRotated.
	release, entered := make(chan struct{}), make(chan struct{})
	err := m.log.Compact(func() ([][]byte, error) {
		close(entered)
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	if !m.log.Compacting() || m.log.Epoch() != 2 {
		t.Fatalf("held compaction: Compacting %v, epoch %d; want true, 2", m.log.Compacting(), m.log.Epoch())
	}
	if got := runtime.NumGoroutine(); got != idle+1 {
		t.Fatalf("%d goroutines with a compaction in flight, want %d", got, idle+1)
	}
	// Appends and flushes go on into the new segment meanwhile.
	m.call(3, 3)
	second := make(chan error, 1)
	go func() {
		second <- m.log.Compact(func() ([][]byte, error) { return nil, nil })
	}()
	select {
	case err := <-second:
		t.Fatalf("second Compact returned (%v) while the first was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	if m.log.Epoch() != 2 {
		t.Fatalf("epoch moved to %d under a held compaction", m.log.Epoch())
	}
	close(release)
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if err := m.log.Wait(); err != nil {
		t.Fatal(err)
	}
	if m.log.Compacting() || m.log.Epoch() != 3 {
		t.Fatalf("after both: Compacting %v, epoch %d; want false, 3", m.log.Compacting(), m.log.Epoch())
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > idle {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines once idle, want %d", runtime.NumGoroutine(), idle)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCompactorFailureReportedAtNextFlush: a snapshot that cannot be
// written fails the first Flush after it, once, and leaves the chain it
// did not supersede intact.
func TestCompactorFailureReportedAtNextFlush(t *testing.T) {
	dir := t.TempDir()
	m := openModel(t, dir)
	m.compactSync()
	m.call(1, 2)
	// A directory squatting on the temp file's name fails its creation.
	if err := os.Mkdir(m.log.path(tmpName, 2), 0o755); err != nil {
		t.Fatal(err)
	}
	m.compact()
	for m.log.Compacting() {
		time.Sleep(time.Millisecond)
	}
	if err := m.log.Append([]byte("3")); err != nil {
		t.Fatal(err)
	}
	if err := m.log.Flush(); err == nil {
		t.Fatal("Flush after a failed compaction reported nothing")
	}
	if err := m.log.Flush(); err != nil {
		t.Fatalf("the failure was reported twice: %v", err)
	}
	m.log.Abandon(StepDone)
	state, snapEpoch, replayed, _, err := recovered(t, dir)
	if err != nil || snapEpoch != 1 || replayed != 3 || state != "1 2 3" {
		t.Fatalf("Recover = state %s from snapshot %d, %d records, err %v", state, snapEpoch, replayed, err)
	}
}

// TestDamagedLengthAllocatesNothing: a final frame whose length field
// claims 4 GiB is a torn record — the valid prefix comes back and the
// claimed length is never allocated.
func TestDamagedLengthAllocatesNothing(t *testing.T) {
	dir := t.TempDir()
	m := openModel(t, dir)
	m.compactSync()
	m.call(1, 3)
	m.log.Close()
	appendBytes(t, filepath.Join(dir, segFile(1)), hugeFrame)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	state, _, replayed, _, err := recovered(t, dir)
	runtime.ReadMemStats(&after)
	if err != nil || replayed != 3 || state != "1 2 3" {
		t.Fatalf("Recover = state %q, %d records, err %v; want the 3-record prefix", state, replayed, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("recovery allocated %d bytes for a frame claiming 4 GiB", grew)
	}
	if info, err := os.Stat(filepath.Join(dir, segFile(1))); err != nil || info.Size() != int64(HeaderLen+3*(FrameOverhead+1)) {
		t.Fatalf("torn frame not truncated away: size %d, err %v", info.Size(), err)
	}
}

// hugeFrame is a frame header claiming a 0xFFFFFFFF-byte payload, then a
// few bytes of one.
var hugeFrame = append(binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, 0xFFFFFFFF), 0), "tail"...)

func TestCheckFramed(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFramed(&buf, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	rec := buf.Bytes()
	if got, err := CheckFramed(rec); err != nil || string(got) != "payload" {
		t.Fatalf("CheckFramed = %q, %v", got, err)
	}
	if _, err := CheckFramed(rec[:len(rec)-1]); err == nil {
		t.Fatal("short record accepted")
	}
	rec[len(rec)-1] ^= 0xff
	if _, err := CheckFramed(rec); err == nil {
		t.Fatal("damaged record accepted")
	}
}

// TestReplace: the file is replaced whole and no temp file is left, on
// success and on a failed write alike.
func TestReplace(t *testing.T) {
	dir := t.TempDir()
	path, tmp := filepath.Join(dir, "f"), filepath.Join(dir, "f.tmp")
	for _, content := range []string{"one", "two"} {
		content := content
		err := Replace(tmp, path, func(w *bufio.Writer) error {
			_, err := w.WriteString(content)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != content {
			t.Fatalf("file holds %q, want %q", got, content)
		}
	}
	failed := errors.New("write failed")
	if err := Replace(tmp, path, func(*bufio.Writer) error { return failed }); !errors.Is(err, failed) {
		t.Fatalf("Replace with a failing writer: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "two" {
		t.Fatalf("a failed replace changed the file to %q", got)
	}
	if got := dirNames(t, dir); !reflect.DeepEqual(got, []string{"f"}) {
		t.Fatalf("directory = %v, want only the file", got)
	}
}

// --- damage helpers ---

func truncateTail(t *testing.T, path string, n int64) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	truncateTo(t, path, info.Size()-n)
}

func truncateTo(t *testing.T, path string, size int64) {
	t.Helper()
	if err := os.Truncate(path, size); err != nil {
		t.Fatal(err)
	}
}

// flipByte XORs one byte; offset -1 means the last byte.
func flipByte(t *testing.T, path string, offset int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if offset < 0 {
		offset = int64(len(data)) - 1
	}
	setByte(t, path, offset, data[offset]^0xff)
}

func setByte(t *testing.T, path string, offset int64, v byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[offset] = v
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}
