//go:build unix

package sitehost

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/seglog"
	"repro/internal/wire"
)

// The two horizontal calls the tests drive state with, as mirrors of
// the engine's unexported request types (the positional codec matches by
// field order): a one-item h.batchApply stores a tuple in the fragment and
// files it under its class of rule r1, h.settleGroup pins the flag of the
// tuple's group.
type batchApplyItem struct {
	Op     int
	ID     int64
	Values []string
}

type batchApplyReq struct {
	Updates []batchApplyItem
	RawKeys bool
}

type keyRef struct {
	Digest []byte
	Raw    []string
}

type settleGroupItem struct {
	Rule string
	X    keyRef
	Flag bool
}

type settleGroupReq struct {
	Items []settleGroupItem
}

// script dispatches the deterministic call stream the compaction tests
// share: per step one tuple insertion, a flag settle on its group (steps
// spread over several groups and classes, so a snapshot holds maps of
// more than one entry, flagged and not), and a mark. It runs steps [from, to) and returns
// the next free sequence number.
func script(t *testing.T, host *Host, seq uint64, from, to int) uint64 {
	t.Helper()
	call := func(method string, req any) {
		t.Helper()
		var data []byte
		if req != nil {
			var err error
			if data, err = wire.Marshal(req); err != nil {
				t.Fatal(err)
			}
		}
		if _, errStr := host.Dispatch(seq, method, data); errStr != "" {
			t.Fatalf("seq %d %s: %s", seq, method, errStr)
		}
		seq++
	}
	for i := from; i < to; i++ {
		a, b := fmt.Sprintf("a%d", i%5), fmt.Sprintf("b%d", i%3)
		call("h.batchApply", batchApplyReq{Updates: []batchApplyItem{{Op: 0, ID: int64(i + 1), Values: []string{a, b}}}})
		call("h.settleGroup", settleGroupReq{Items: []settleGroupItem{{Rule: "r1", X: keyRef{Raw: []string{a}}, Flag: i%2 == 0}}})
		call("chk.mark", nil)
	}
	return seq
}

// hostState is what a recovered host must share with its twin. Window
// renders each cached reply as "seq:data:err", oldest first (a reply
// restored from a snapshot and one re-executed from the log differ in
// nil against empty, which no resend can tell apart).
type hostState struct {
	Engine  []byte
	LastSeq uint64
	Window  []string
}

func stateOf(t *testing.T, h *Host) hostState {
	t.Helper()
	eng, err := h.engine.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st := hostState{Engine: eng, LastSeq: h.lastSeq}
	for _, seq := range h.order {
		r := h.window[seq]
		st.Window = append(st.Window, fmt.Sprintf("%d:%x:%s", seq, r.data, r.err))
	}
	return st
}

// TestKillAtEveryCompactorStepRecoversTwin: a daemon killed with its
// compactor at any step recovers, on the same directory, to the state of
// a twin that was left to finish — engine bytes, watermark and reply
// window — replaying either the records since the older snapshot or,
// once the newer one is in place, the records since that. Every acked
// mark survives.
func TestKillAtEveryCompactorStepRecoversTwin(t *testing.T) {
	// every=3: the first mark snapshots (epoch 1, as Open's does); steps
	// 0-2 end in plain marks, the third of which rotates (epoch 2). The
	// kill lands right behind that mark's reply. (The compactor may be
	// past the named step by then — it has then done more, never less;
	// checkpoint's TestCompactionCrashPoints pins each step exactly.)
	run := func(t *testing.T, step seglog.Step) (dir string, lastSeq uint64) {
		dir = t.TempDir()
		host := bootHost(t, dir, 3)
		if _, errStr := host.Dispatch(1, "chk.mark", nil); errStr != "" {
			t.Fatal(errStr)
		}
		seq := script(t, host, 2, 0, 3)
		if got := host.CheckpointEpoch(); got != 2 {
			t.Fatalf("epoch after the rotating mark = %d, want 2", got)
		}
		host.Abandon(step)
		return dir, seq - 1
	}
	recoverDir := func(t *testing.T, dir string) (*Host, RecoveryStats) {
		h := NewHost()
		t.Cleanup(func() { h.Close() })
		stats, err := h.UseCheckpoints(dir)
		if err != nil {
			t.Fatal(err)
		}
		return h, stats
	}
	twinDir, lastSeq := run(t, seglog.StepDone)
	twin, twinStats := recoverDir(t, twinDir)
	if twinStats.Epoch != 2 || twinStats.Replayed != 0 || twinStats.LastSeq != lastSeq {
		t.Fatalf("uncrashed twin recovered %+v, want epoch 2, nothing replayed, seq %d", twinStats, lastSeq)
	}
	want := stateOf(t, twin)
	for _, step := range []seglog.Step{seglog.StepRotated, seglog.StepTempWritten, seglog.StepRenamed, seglog.StepDone} {
		t.Run(fmt.Sprintf("step%d", step), func(t *testing.T) {
			dir, _ := run(t, step)
			host, stats := recoverDir(t, dir)
			if got := stateOf(t, host); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered state differs from the uncrashed twin's:\n got  seq %d window %v engine %x\n want seq %d window %v engine %x",
					got.LastSeq, got.Window, got.Engine, want.LastSeq, want.Window, want.Engine)
			}
			// From snapshot 1: the nine records of steps 0-2. From
			// snapshot 2: none.
			if !(stats.Epoch == 1 && stats.Replayed == 9) && !(stats.Epoch == 2 && stats.Replayed == 0) {
				t.Fatalf("recovery stats %+v: want 9 records on snapshot 1 or none on snapshot 2", stats)
			}
			// The recovered host keeps serving and compacting.
			seq := script(t, host, stats.LastSeq+1, 3, 6)
			if host.lastSeq != seq-1 {
				t.Fatalf("after three more steps lastSeq = %d, want %d", host.lastSeq, seq-1)
			}
		})
	}
}

// TestSnapshotBytesAreCanonical: two hosts fed the same calls hold the
// same snapshot bytes, whatever order their maps iterate in.
func TestSnapshotBytesAreCanonical(t *testing.T) {
	var blobs [][]byte
	for i := 0; i < 4; i++ {
		host := bootHost(t, "", 0)
		script(t, host, 1, 0, 12)
		blobs = append(blobs, stateOf(t, host).Engine)
	}
	for i := 1; i < len(blobs); i++ {
		if !bytes.Equal(blobs[0], blobs[i]) {
			t.Fatalf("host %d snapshot differs from host 0's", i)
		}
	}
}

// A mark that cannot be made durable must not be answered "ok" when the
// driver resends it (the redrive after Rewind does exactly that): the
// dedupe window may only ever hold marks whose record is flushed. Before
// the fix the first-snapshot path remembered the mark and then failed.
func TestFailedMarkIsNotCachedAsSuccess(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	host := bootHost(t, dir, 2)
	// The directory fails under the host: the first snapshot's rotation
	// cannot create its segment.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		if _, errStr := host.Dispatch(1, "chk.mark", nil); !strings.Contains(errStr, "checkpoint snapshot") {
			t.Fatalf("attempt %d: mark on a failing directory answered %q, want the snapshot error", attempt, errStr)
		}
	}
	if host.lastSeq != 0 || host.StatusPayload() != nil {
		t.Fatalf("failed mark advanced the watermark to %d", host.lastSeq)
	}
	// The directory comes back: the same seq now succeeds and is cached.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		if _, errStr := host.Dispatch(1, "chk.mark", nil); errStr != "" {
			t.Fatalf("attempt %d on the restored directory: %s", attempt, errStr)
		}
	}
	if host.lastSeq != 1 || host.CheckpointEpoch() != 1 {
		t.Fatalf("after the successful mark: lastSeq %d epoch %d, want 1 and 1", host.lastSeq, host.CheckpointEpoch())
	}
}

// The first snapshot can also fail after its rotation, when the segment
// exists and the snapshot file does not. The host must not go on to log
// and ack marks into that segment — no snapshot stands under it — but
// try the first snapshot again.
func TestFailedFirstSnapshotIsRetried(t *testing.T) {
	dir := t.TempDir()
	host := bootHost(t, dir, 2)
	// A directory squatting on the temp file's name fails the write (the
	// reset that follows clears it away with everything else).
	if err := os.Mkdir(filepath.Join(dir, "snap-0000000000000001.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, errStr := host.Dispatch(1, "chk.mark", nil); !strings.Contains(errStr, "checkpoint snapshot") {
		t.Fatalf("mark whose snapshot cannot be written answered %q", errStr)
	}
	if got := host.CheckpointEpoch(); got != 0 || host.lastSeq != 0 {
		t.Fatalf("after a failed first snapshot: epoch %d, lastSeq %d; want 0 and 0", got, host.lastSeq)
	}
	seq := script(t, host, 1, 0, 2)
	host.Abandon(seglog.StepDone)
	host2 := NewHost()
	defer host2.Close()
	stats, err := host2.UseCheckpoints(dir)
	if err != nil || !stats.Recovered || stats.LastSeq != seq-1 {
		t.Fatalf("recovery after the retried first snapshot = %+v, %v; want seq %d", stats, err, seq-1)
	}
}

// holdCompactor makes the host's next compaction block before it writes
// a byte: the snapshot's temp name is taken by a FIFO, whose open waits
// for a reader. release lets the compactor through, to a failure — a
// FIFO cannot be fsynced — that the host must latch.
func holdCompactor(t *testing.T, dir string, epoch uint64) (release func()) {
	t.Helper()
	fifo := filepath.Join(dir, fmt.Sprintf("snap-%016x.tmp", epoch))
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			go func() {
				// Blocks until the compactor opens its end.
				r, err := os.OpenFile(fifo, os.O_RDONLY, 0)
				if err != nil {
					t.Errorf("open fifo: %v", err)
					return
				}
				io.Copy(io.Discard, r)
				r.Close()
			}()
		})
	}
	// Runs before the host's Close, which waits for the compactor.
	t.Cleanup(release)
	return release
}

// TestMarkDuringCompactionIsPlain: a mark that falls due while a
// compaction is in flight does not start a second one — it is a plain,
// acked, flushed mark, and the compaction starts at the next due mark
// after the first is over. And a compactor that fails behind the reply
// fails the next mark, which is not cached as served.
func TestMarkDuringCompactionIsPlain(t *testing.T) {
	dir := t.TempDir()
	host := bootHost(t, dir, 1) // every mark is due
	mark := func(seq uint64) string {
		_, errStr := host.Dispatch(seq, "chk.mark", nil)
		return errStr
	}
	if errStr := mark(1); errStr != "" { // first snapshot, epoch 1
		t.Fatal(errStr)
	}
	release := holdCompactor(t, dir, 2)
	if errStr := mark(2); errStr != "" || host.CheckpointEpoch() != 2 {
		t.Fatalf("rotating mark: %q, epoch %d; want ok at epoch 2", errStr, host.CheckpointEpoch())
	}
	for seq := uint64(3); seq <= 5; seq++ {
		if errStr := mark(seq); errStr != "" {
			t.Fatalf("mark %d during the compaction: %s", seq, errStr)
		}
		if got := host.CheckpointEpoch(); got != 2 {
			t.Fatalf("mark %d started a second compaction: epoch %d", seq, got)
		}
	}
	// Every one of them is on disk although no snapshot 2 exists.
	if recs := logRecords(t, dir); recs != 4 {
		t.Fatalf("%d mark records on disk during the compaction, want 4 (seqs 2-5)", recs)
	}

	release()
	deadline := time.Now().Add(5 * time.Second)
	for {
		host.callMu.Lock()
		busy := host.ckpt.Compacting()
		host.callMu.Unlock()
		if !busy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("compactor still in flight after its FIFO was opened")
		}
		time.Sleep(time.Millisecond)
	}
	for attempt := 0; attempt < 2; attempt++ {
		if errStr := mark(6); !strings.Contains(errStr, "checkpoint delta log failed") {
			t.Fatalf("attempt %d: mark after a failed compaction answered %q, want the latched failure", attempt, errStr)
		}
	}
	if host.lastSeq != 5 {
		t.Fatalf("lastSeq = %d after the refused mark, want 5", host.lastSeq)
	}
}

// logRecords counts the framed records in dir's delta segments.
func logRecords(t *testing.T, dir string) int {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(dir, "delta-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, path := range logs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := seglog.HeaderLen; off+seglog.FrameOverhead <= len(data); n++ {
			off += seglog.FrameOverhead + int(binary.BigEndian.Uint32(data[off:]))
		}
	}
	return n
}

// TestCloseWaitsForCompactor: Close returns only once the compactor has
// — the snapshot is in place, the old epoch gone, no goroutine left — and
// a closed host refuses calls instead of acking marks nothing persists.
func TestCloseWaitsForCompactor(t *testing.T) {
	runtime.GC()
	idle := runtime.NumGoroutine()
	dir := t.TempDir()
	host := bootHost(t, dir, 1)
	// Four marks, each due: the first snapshot, then compactions (or
	// plain marks, where the one before was still being written).
	seq := script(t, host, 1, 0, 4)
	epoch := host.CheckpointEpoch()
	if err := host.Close(); err != nil {
		t.Fatal(err)
	}
	// The compactor signals before it returns: give it that instant.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > idle; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, want at most %d", runtime.NumGoroutine(), idle)
		}
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(dir, fmt.Sprintf("delta-%016x.log", epoch)),
		filepath.Join(dir, fmt.Sprintf("snap-%016x.ckpt", epoch)),
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("directory after Close = %v, want %v", names, want)
	}
	if _, errStr := host.Dispatch(seq, "chk.mark", nil); !strings.Contains(errStr, "closed") {
		t.Fatalf("mark on a closed host answered %q", errStr)
	}
	if err := host.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
