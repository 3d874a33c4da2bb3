package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/seglog"
	"repro/internal/xerr"
)

// model is the toy replicated state the compaction tests drive a store
// with: the state is the list of sequence numbers applied, a snapshot's
// engine blob is that list, and a record replays by appending its seq —
// the same snapshot-plus-replay contract a hosted site has.
type model struct {
	t       *testing.T
	st      *Store
	applied []uint64
}

func openModel(t *testing.T, dir string) *model {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return &model{t: t, st: st}
}

func (m *model) blob() []byte { return []byte(fmt.Sprint(m.applied)) }

// call applies and logs calls seq from..to, then flushes (a mark).
func (m *model) call(from, to uint64) {
	m.t.Helper()
	for seq := from; seq <= to; seq++ {
		m.applied = append(m.applied, seq)
		if err := m.st.Append(Record{Seq: seq, Method: "m"}); err != nil {
			m.t.Fatal(err)
		}
	}
	if err := m.st.Flush(); err != nil {
		m.t.Fatal(err)
	}
}

// compact starts a compaction of the current state.
func (m *model) compact() {
	m.t.Helper()
	last := uint64(0)
	if n := len(m.applied); n > 0 {
		last = m.applied[n-1]
	}
	if err := m.st.Compact(&Snapshot{LastSeq: last, Engine: m.blob()}); err != nil {
		m.t.Fatal(err)
	}
}

// recovered opens dir afresh and returns the state recovery rebuilds
// (snapshot blob plus replayed seqs, rendered like blob), the snapshot's
// epoch, the records replayed and the store's current epoch.
func recovered(t *testing.T, dir string) (state string, snapEpoch uint64, replayed int, epoch uint64, err error) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snap, recs, err := st.Recover()
	if err != nil || snap == nil {
		return "", 0, 0, 0, err
	}
	var applied []uint64
	// The blob is fmt.Sprint of a []uint64: "[1 2 3]".
	for _, f := range strings.Fields(strings.Trim(string(snap.Engine), "[]")) {
		x, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			t.Fatalf("engine blob %q: %v", snap.Engine, err)
		}
		applied = append(applied, x)
	}
	for _, r := range recs {
		applied = append(applied, r.Seq)
	}
	return fmt.Sprint(applied), snap.Epoch, len(recs), st.Epoch(), nil
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

// TestCompactionCrashPoints kills the compactor at each of its steps and
// recovers on the same directory: every record flushed before the kill —
// in the rotated segment or the one after — must come back, from the
// older snapshot plus two segments until the new snapshot is in place
// and from the new one afterwards, and the state must equal that of a
// twin whose compaction ran to the end.
func TestCompactionCrashPoints(t *testing.T) {
	// History: snapshot 1 at seq 0, calls 1-4, compaction (epoch 2),
	// calls 5-6 into the new segment, kill.
	run := func(t *testing.T, stopAt seglog.Step) string {
		dir := t.TempDir()
		m := openModel(t, dir)
		m.compact()
		if err := m.st.Wait(); err != nil {
			t.Fatal(err)
		}
		m.call(1, 4)
		m.st.StopAt(stopAt)
		m.compact()
		if got := m.st.Epoch(); got != 2 {
			t.Fatalf("epoch after the rotation = %d, want 2 before the snapshot exists", got)
		}
		m.call(5, 6)
		m.st.Abandon(stopAt)
		return dir
	}
	twinState, twinEpoch, twinReplayed, _, err := recovered(t, run(t, 0))
	if err != nil || twinEpoch != 2 || twinReplayed != 2 {
		t.Fatalf("uncrashed twin recovered epoch %d with %d records (err %v), want epoch 2 and 2", twinEpoch, twinReplayed, err)
	}
	cases := []struct {
		step         seglog.Step
		name         string
		wantSnap     uint64
		wantReplayed int
		wantFiles    []string
	}{
		{seglog.StepRotated, "after rotation", 1, 6, []string{"delta-0000000000000001.log", "delta-0000000000000002.log", "snap-0000000000000001.ckpt"}},
		{seglog.StepTempWritten, "after the temp write", 1, 6, []string{"delta-0000000000000001.log", "delta-0000000000000002.log", "snap-0000000000000001.ckpt"}},
		{seglog.StepRenamed, "after the rename", 2, 2, []string{"delta-0000000000000002.log", "snap-0000000000000002.ckpt"}},
		{seglog.StepDone, "after the unlinks", 2, 2, []string{"delta-0000000000000002.log", "snap-0000000000000002.ckpt"}},
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

// TestRecoverAfterCrashedCompactionCompactsAgain: a store recovered from
// the older snapshot plus two segments keeps appending to the second and
// its next compaction supersedes all three files.
func TestRecoverAfterCrashedCompactionCompactsAgain(t *testing.T) {
	dir := t.TempDir()
	m := openModel(t, dir)
	m.compact()
	if err := m.st.Wait(); err != nil {
		t.Fatal(err)
	}
	m.call(1, 2)
	m.st.StopAt(seglog.StepRotated)
	m.compact()
	m.call(3, 3)
	m.st.Abandon(seglog.StepRotated)

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snap, recs, err := st.Recover()
	if err != nil || snap.Epoch != 1 || len(recs) != 3 || st.Epoch() != 2 {
		t.Fatalf("Recover = snapshot %+v, %d records, epoch %d, err %v", snap, len(recs), st.Epoch(), err)
	}
	if err := st.Append(Record{Seq: 4, Method: "m"}); err != nil {
		t.Fatal(err)
	}
	snapshotSync(t, st, &Snapshot{LastSeq: 4})
	want := []string{"delta-0000000000000003.log", "snap-0000000000000003.ckpt"}
	if got := dirNames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("directory after the next compaction = %v, want %v", got, want)
	}
}

// TestRecoverRefusesIncompleteChain: recovery never loads a snapshot
// whose segment chain is damaged anywhere but at the tail of its last
// segment.
func TestRecoverRefusesIncompleteChain(t *testing.T) {
	seg := func(epoch int) string { return fmt.Sprintf("delta-%016x.log", epoch) }
	// Chain: snapshot 1, segments 1 (calls 1-3), 2 (calls 4-6) and
	// 3 (calls 7-9); both compactions died before writing anything.
	build := func(t *testing.T) string {
		dir := t.TempDir()
		m := openModel(t, dir)
		m.compact()
		if err := m.st.Wait(); err != nil {
			t.Fatal(err)
		}
		m.st.StopAt(seglog.StepRotated)
		m.call(1, 3)
		m.compact()
		m.call(4, 6)
		m.compact()
		m.call(7, 9)
		m.st.Abandon(seglog.StepRotated)
		return dir
	}
	cases := []struct {
		name         string
		damage       func(t *testing.T, dir string)
		wantReplayed int // -1: ErrCheckpointCorrupt, nothing loaded
	}{
		{"intact", func(*testing.T, string) {}, 9},
		{"torn tail in the last segment", func(t *testing.T, dir string) {
			truncateTail(t, filepath.Join(dir, seg(3)), 3)
		}, 8},
		{"last segment torn inside its header", func(t *testing.T, dir string) {
			truncateTo(t, filepath.Join(dir, seg(3)), 2)
		}, 6},
		{"torn tail in a middle segment", func(t *testing.T, dir string) {
			truncateTail(t, filepath.Join(dir, seg(2)), 3)
		}, -1},
		{"torn tail in the first segment", func(t *testing.T, dir string) {
			truncateTail(t, filepath.Join(dir, seg(1)), 3)
		}, -1},
		{"CRC damage in a middle segment", func(t *testing.T, dir string) {
			flipByte(t, filepath.Join(dir, seg(2)), headerLen+8+2)
		}, -1},
		{"CRC damage in the last segment", func(t *testing.T, dir string) {
			flipByte(t, filepath.Join(dir, seg(3)), headerLen+8+2)
		}, -1},
		{"missing middle segment", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, seg(2))); err != nil {
				t.Fatal(err)
			}
		}, -1},
		{"missing first segment", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, seg(1))); err != nil {
				t.Fatal(err)
			}
		}, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := build(t)
			tc.damage(t, dir)
			state, snapEpoch, replayed, epoch, err := recovered(t, dir)
			if tc.wantReplayed < 0 {
				if !errors.Is(err, xerr.ErrCheckpointCorrupt) || state != "" {
					t.Fatalf("Recover = state %q, err %v; want ErrCheckpointCorrupt and nothing loaded", state, err)
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

// TestRecoverFallsBackToOlderCompleteEpoch: a kill between the rename
// and the unlinks leaves both epochs on disk; if the newer snapshot then
// fails validation, the older one still has its whole chain beside it.
func TestRecoverFallsBackToOlderCompleteEpoch(t *testing.T) {
	dir := t.TempDir()
	m := openModel(t, dir)
	m.compact()
	if err := m.st.Wait(); err != nil {
		t.Fatal(err)
	}
	m.call(1, 3)
	m.st.StopAt(seglog.StepRenamed)
	m.compact()
	m.call(4, 5)
	m.st.Abandon(seglog.StepRenamed)
	flipByte(t, filepath.Join(dir, "snap-0000000000000002.ckpt"), -1)

	state, snapEpoch, replayed, epoch, err := recovered(t, dir)
	if err != nil || snapEpoch != 1 || replayed != 5 || epoch != 2 || state != "[1 2 3 4 5]" {
		t.Fatalf("Recover = state %s from snapshot %d, %d records, epoch %d, err %v; want [1 2 3 4 5] from snapshot 1 over both segments",
			state, snapEpoch, replayed, epoch, err)
	}
}

// TestOneCompactionInFlight: a Compact issued while the one before is
// still writing waits for it instead of starting a second compactor —
// both epochs land in order, the second supersedes the first, and no
// goroutine is left. (Holding the compactor mid-step to watch it is
// seglog's TestOneCompactionInFlight.)
func TestOneCompactionInFlight(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snapshotSync(t, st, &Snapshot{LastSeq: 1})
	runtime.GC()
	idle := runtime.NumGoroutine()

	first := &Snapshot{LastSeq: 2, Engine: make([]byte, 1<<16)}
	if err := st.Compact(first); err != nil {
		t.Fatal(err)
	}
	if first.Epoch != 2 || st.Epoch() != 2 {
		t.Fatalf("after the first Compact: snapshot epoch %d, store epoch %d; want 2, 2", first.Epoch, st.Epoch())
	}
	// Appends and flushes go on into the new segment meanwhile.
	if err := st.Append(Record{Seq: 3, Method: "m"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	snapshotSync(t, st, &Snapshot{LastSeq: 3})
	if st.Compacting() || st.Epoch() != 3 {
		t.Fatalf("after both: Compacting %v, epoch %d; want false, 3", st.Compacting(), st.Epoch())
	}
	want := []string{"delta-0000000000000003.log", "snap-0000000000000003.ckpt"}
	if got := dirNames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("directory after both compactions = %v, want %v", got, want)
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
	m.compact()
	if err := m.st.Wait(); err != nil {
		t.Fatal(err)
	}
	m.call(1, 2)
	// A directory squatting on the temp file's name fails its creation.
	if err := os.Mkdir(filepath.Join(dir, "snap-0000000000000002.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	m.compact()
	for m.st.Compacting() {
		time.Sleep(time.Millisecond)
	}
	if err := m.st.Append(Record{Seq: 3, Method: "m"}); err != nil {
		t.Fatal(err)
	}
	m.applied = append(m.applied, 3)
	if err := m.st.Flush(); err == nil {
		t.Fatal("Flush after a failed compaction reported nothing")
	}
	if err := m.st.Flush(); err != nil {
		t.Fatalf("the failure was reported twice: %v", err)
	}
	m.st.Abandon(seglog.StepDone)
	state, snapEpoch, replayed, _, err := recovered(t, dir)
	if err != nil || snapEpoch != 1 || replayed != 3 || state != "[1 2 3]" {
		t.Fatalf("Recover = state %s from snapshot %d, %d records, err %v", state, snapEpoch, replayed, err)
	}
}
