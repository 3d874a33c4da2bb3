package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/seglog"
	"repro/internal/xerr"
)

// These tests drive the typed Store exactly as they did when it owned its
// files: that they still pass, names, epochs and directory listings
// included, is the evidence that moving the chain into internal/seglog
// changed nothing a site can observe. The chain's own suite — the same
// shapes over opaque bytes, plus the held compactor — is seglog's.

const headerLen = seglog.HeaderLen

// snapshotSync runs one compaction to the end: the first snapshot's and
// FinalCheckpoint's path.
func snapshotSync(t *testing.T, st *Store, snap *Snapshot) {
	t.Helper()
	if err := st.Compact(snap); err != nil {
		t.Fatal(err)
	}
	if err := st.Wait(); err != nil {
		t.Fatal(err)
	}
}

// writeEpoch populates dir with one snapshot (epoch 1) plus n delta
// records through the public API.
func writeEpoch(t *testing.T, dir string, n int) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snap := &Snapshot{
		Hello:   []byte("hello-payload"),
		LastSeq: 7,
		Window:  []Reply{{Seq: 7, Data: []byte("ok")}},
		Engine:  []byte("engine-state"),
	}
	snapshotSync(t, st, snap)
	if snap.Epoch != 1 {
		t.Fatalf("first snapshot epoch = %d, want 1", snap.Epoch)
	}
	for i := 0; i < n; i++ {
		rec := Record{Seq: uint64(8 + i), Method: "h.batchApply", Data: []byte{byte(i)}}
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
}

func recoverDir(t *testing.T, dir string) (*Snapshot, []Record, error) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	return st.Recover()
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeEpoch(t, dir, 3)

	snap, recs, err := recoverDir(t, dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if snap == nil || snap.Epoch != 1 || snap.LastSeq != 7 {
		t.Fatalf("recovered snapshot %+v", snap)
	}
	if string(snap.Engine) != "engine-state" || string(snap.Hello) != "hello-payload" {
		t.Fatalf("snapshot payloads corrupted: %+v", snap)
	}
	if len(snap.Window) != 1 || snap.Window[0].Seq != 7 {
		t.Fatalf("reply window lost: %+v", snap.Window)
	}
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(8+i) || r.Method != "h.batchApply" {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

func TestEmptyDirRecoversClean(t *testing.T) {
	snap, recs, err := recoverDir(t, t.TempDir())
	if snap != nil || recs != nil || err != nil {
		t.Fatalf("empty dir: snap=%v recs=%v err=%v", snap, recs, err)
	}
}

func TestCompactionReplacesEpoch(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snapshotSync(t, st, &Snapshot{LastSeq: 1})
	if err := st.Append(Record{Seq: 2, Method: "m"}); err != nil {
		t.Fatal(err)
	}
	snapshotSync(t, st, &Snapshot{LastSeq: 2})
	if st.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", st.Epoch())
	}
	// The old epoch's files are compacted away.
	if _, err := os.Stat(filepath.Join(dir, "snap-0000000000000001.ckpt")); !os.IsNotExist(err) {
		t.Fatal("epoch-1 snapshot not removed by compaction")
	}
	if _, err := os.Stat(filepath.Join(dir, "delta-0000000000000001.log")); !os.IsNotExist(err) {
		t.Fatal("epoch-1 delta log not removed by compaction")
	}
	snap, recs, err := recoverDir(t, dir)
	if err != nil || snap.Epoch != 2 || snap.LastSeq != 2 || len(recs) != 0 {
		t.Fatalf("after compaction: snap=%+v recs=%v err=%v", snap, recs, err)
	}
}

// TestCorruptCheckpoints is the torn/corrupt coverage: every damaged
// shape must be DETECTED — recovery reports ErrCheckpointCorrupt and
// loads nothing, falling back to a full reseed — except the one
// legitimate crash shape, a torn trailing log record, whose valid
// prefix is recovered.
func TestCorruptCheckpoints(t *testing.T) {
	snapName := "snap-0000000000000001.ckpt"
	logName := "delta-0000000000000001.log"
	cases := []struct {
		name    string
		records int
		damage  func(t *testing.T, dir string)
		// wantCorrupt: Recover must fail with ErrCheckpointCorrupt and
		// return no state. Otherwise wantRecords is the surviving
		// record count.
		wantCorrupt bool
		wantRecords int
	}{
		{
			name: "truncated snapshot",
			damage: func(t *testing.T, dir string) {
				truncateTail(t, filepath.Join(dir, snapName), 10)
			},
			wantCorrupt: true,
		},
		{
			name: "snapshot truncated to header only",
			damage: func(t *testing.T, dir string) {
				truncateTo(t, filepath.Join(dir, snapName), headerLen)
			},
			wantCorrupt: true,
		},
		{
			name: "snapshot bad CRC",
			damage: func(t *testing.T, dir string) {
				flipByte(t, filepath.Join(dir, snapName), -1)
			},
			wantCorrupt: true,
		},
		{
			name: "snapshot bad magic",
			damage: func(t *testing.T, dir string) {
				flipByte(t, filepath.Join(dir, snapName), 0)
			},
			wantCorrupt: true,
		},
		{
			name:    "delta log bad CRC mid-file",
			records: 3,
			damage: func(t *testing.T, dir string) {
				// Damage a payload byte inside the first record, leaving
				// length framing intact: the CRC must catch it.
				flipByte(t, filepath.Join(dir, logName), headerLen+8+2)
			},
			wantCorrupt: true,
		},
		{
			name:    "mixed-version snapshot and delta log",
			records: 2,
			damage: func(t *testing.T, dir string) {
				setByte(t, filepath.Join(dir, logName), 4, FormatVersion+1)
			},
			wantCorrupt: true,
		},
		{
			name:    "future-version snapshot",
			records: 0,
			damage: func(t *testing.T, dir string) {
				setByte(t, filepath.Join(dir, snapName), 4, FormatVersion+1)
			},
			wantCorrupt: true,
		},
		{
			// The previous format generation: positional records whose
			// v.batchResolve payloads name one node. Replaying those
			// through today's handlers would mis-decode, so the whole
			// epoch is refused.
			name:    "previous-version delta log",
			records: 2,
			damage: func(t *testing.T, dir string) {
				setByte(t, filepath.Join(dir, logName), 4, FormatVersion-1)
			},
			wantCorrupt: true,
		},
		{
			name:    "previous-version snapshot",
			records: 0,
			damage: func(t *testing.T, dir string) {
				setByte(t, filepath.Join(dir, snapName), 4, FormatVersion-1)
			},
			wantCorrupt: true,
		},
		{
			// Two generations back: gob-framed records of gob payloads.
			name:    "gob-era delta log",
			records: 2,
			damage: func(t *testing.T, dir string) {
				setByte(t, filepath.Join(dir, logName), 4, 1)
			},
			wantCorrupt: true,
		},
		{
			name:    "gob-era snapshot",
			records: 0,
			damage: func(t *testing.T, dir string) {
				setByte(t, filepath.Join(dir, snapName), 4, 1)
			},
			wantCorrupt: true,
		},
		{
			name:    "torn trailing log record recovers the prefix",
			records: 3,
			damage: func(t *testing.T, dir string) {
				truncateTail(t, filepath.Join(dir, logName), 3)
			},
			wantCorrupt: false,
			wantRecords: 2,
		},
		{
			name:    "log truncated inside the frame header",
			records: 2,
			damage: func(t *testing.T, dir string) {
				// Tear mid-frame-header: only 4 of the 8 framing bytes
				// of the first record survive.
				truncateTo(t, filepath.Join(dir, logName), headerLen+4)
			},
			wantCorrupt: false,
			wantRecords: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeEpoch(t, dir, tc.records)
			tc.damage(t, dir)

			snap, recs, err := recoverDir(t, dir)
			if tc.wantCorrupt {
				if !errors.Is(err, xerr.ErrCheckpointCorrupt) {
					t.Fatalf("Recover err = %v, want ErrCheckpointCorrupt", err)
				}
				if snap != nil || recs != nil {
					t.Fatalf("corrupt checkpoint still loaded state: snap=%v recs=%v", snap, recs)
				}
				return
			}
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if snap == nil || snap.Epoch != 1 {
				t.Fatalf("snapshot not recovered: %+v", snap)
			}
			if len(recs) != tc.wantRecords {
				t.Fatalf("recovered %d records, want %d", len(recs), tc.wantRecords)
			}
		})
	}
}

// TestRecoverSkipsCorruptNewestEpoch verifies "newest valid" semantics:
// a corrupt later snapshot falls back to the older intact epoch and is
// removed, so the next epoch — the one after the recovered segment, for
// the chain has no gaps — does not find a stale file under its name.
func TestRecoverSkipsCorruptNewestEpoch(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snapshotSync(t, st, &Snapshot{LastSeq: 1})
	st.Close()
	// Plant a damaged "newer" snapshot by hand.
	good, err := os.ReadFile(filepath.Join(dir, "snap-0000000000000001.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000002.ckpt"), bad, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	snap, _, err := st2.Recover()
	if err != nil {
		t.Fatalf("Recover with older valid epoch: %v", err)
	}
	if snap == nil || snap.Epoch != 1 {
		t.Fatalf("recovered %+v, want epoch 1", snap)
	}
	if _, err := os.Stat(filepath.Join(dir, "snap-0000000000000002.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("refused snapshot still on disk (stat err %v)", err)
	}
	snapshotSync(t, st2, &Snapshot{LastSeq: 9})
	if st2.Epoch() != 2 {
		t.Fatalf("next epoch = %d, want 2 (the segment after the recovered one)", st2.Epoch())
	}
}

// TestAppendContinuesAfterRecover checks the recovered log accepts new
// records at the truncation point.
func TestAppendContinuesAfterRecover(t *testing.T) {
	dir := t.TempDir()
	writeEpoch(t, dir, 2)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(Record{Seq: 10, Method: "m"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	_, recs, err := recoverDir(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Seq != 10 {
		t.Fatalf("recovered %+v, want 3 records ending at seq 10", recs)
	}
}

func TestOpenUnwritableDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: permission bits are not enforced")
	}
	parent := t.TempDir()
	dir := filepath.Join(parent, "ro")
	if err := os.Mkdir(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open on a read-only dir succeeded, want error")
	} else if !strings.Contains(err.Error(), "not writable") {
		t.Fatalf("unexpected error: %v", err)
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
	data[offset] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
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
