package sitehost

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cfd"
	"repro/internal/checkpoint"
	"repro/internal/relation"
	"repro/internal/seglog"
	"repro/internal/xerr"
)

// bootHost builds a bootstrapped one-site horizontal host, optionally
// checkpointing under dir with the given compaction interval.
func bootHost(t *testing.T, dir string, every int) *Host {
	t.Helper()
	schema, err := relation.NewSchema("r", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := cfd.Parse("r1: ([a] -> [b], (_, _))", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &Hello{
		Proto: ProtoVersion, SessionID: []byte{1, 2, 3, 4, 5, 6, 7, 8},
		Kind: KindHorizontal, Site: 0, NumSites: 1,
		SchemaName: schema.Name, SchemaAttrs: schema.Attrs,
		Rules:         rules,
		CheckpointDir: dir, CheckpointEvery: every,
	}
	data, err := h.Encode()
	if err != nil {
		t.Fatal(err)
	}
	host := NewHost()
	if err := host.Bootstrap(data, false); err != nil {
		t.Fatal(err)
	}
	// Before the directory goes: a compactor may still be writing into it.
	t.Cleanup(func() { host.Close() })
	return host
}

// A duplicate frame arriving several calls late — what chaos duplicate
// injection produces across a reconnect — must be served from the reply
// window, not re-executed. The one-deep cache this replaced only
// absorbed duplicates trailing by exactly one frame; re-executing a
// "chk.mark" here would bump marksSince a second time and compact one
// mark early, which the snapshot epoch makes observable.
func TestDispatchWindowDedupesLateDuplicates(t *testing.T) {
	host := bootHost(t, t.TempDir(), 3)
	mark := func(seq uint64) {
		t.Helper()
		if _, errStr := host.Dispatch(seq, "chk.mark", nil); errStr != "" {
			t.Fatalf("mark seq %d: %s", seq, errStr)
		}
	}
	mark(1) // first mark: snapshot, epoch 1
	if got := host.CheckpointEpoch(); got != 1 {
		t.Fatalf("epoch after first mark = %d, want 1", got)
	}
	mark(2) // marksSince 1
	mark(3) // marksSince 2
	// Duplicate of seq 2, two frames late. Re-execution would reach
	// marksSince 3 == every and compact to epoch 2.
	mark(2)
	if got := host.CheckpointEpoch(); got != 1 {
		t.Fatalf("late duplicate re-executed: epoch = %d, want 1", got)
	}
	mark(4) // the real third mark since the snapshot: now epoch 2
	if got := host.CheckpointEpoch(); got != 2 {
		t.Fatalf("epoch after compaction mark = %d, want 2", got)
	}
	// Progress never regresses on a deduped or late frame.
	if host.StatusPayload() == nil {
		t.Fatal("no status payload after serving calls")
	}
	st, err := DecodeStatus(host.StatusPayload())
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != 4 {
		t.Fatalf("LastSeq = %d, want 4", st.LastSeq)
	}
}

// A crashed host recovers its reply window and watermark from the
// checkpoint: the rebuilt host accepts the session's reconnect, reports
// the recovered LastSeq in its hello ack, and still dedupes a resend of
// an already-served call.
func TestHostRecoversWindowAndWatermark(t *testing.T) {
	dir := t.TempDir()
	host := bootHost(t, dir, 100)
	for seq := uint64(1); seq <= 5; seq++ {
		if _, errStr := host.Dispatch(seq, "chk.mark", nil); errStr != "" {
			t.Fatalf("mark seq %d: %s", seq, errStr)
		}
	}
	// Crash: the process dies without FinalCheckpoint. A fresh host
	// recovers from the snapshot (epoch 1, seq 1) plus the flushed log.
	host.Abandon(seglog.StepDone)
	host2 := NewHost()
	defer host2.Close()
	stats, err := host2.UseCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Recovered || stats.LastSeq != 5 || stats.Replayed != 4 {
		t.Fatalf("recovery stats = %+v, want Recovered, LastSeq 5, Replayed 4", stats)
	}
	// The driver reconnects with the same session id.
	schema, _ := relation.NewSchema("r", []string{"a", "b"})
	rules, _ := cfd.Parse("r1: ([a] -> [b], (_, _))", 0)
	hello := &Hello{
		Proto: ProtoVersion, SessionID: []byte{1, 2, 3, 4, 5, 6, 7, 8},
		Kind: KindHorizontal, Site: 0, NumSites: 1,
		SchemaName: schema.Name, SchemaAttrs: schema.Attrs, Rules: rules,
	}
	data, err := hello.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := host2.Bootstrap(data, true); err != nil {
		t.Fatalf("reconnect rejected: %v", err)
	}
	st, err := DecodeStatus(host2.StatusPayload())
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != 5 {
		t.Fatalf("recovered LastSeq = %d, want 5", st.LastSeq)
	}
	// A resent, already-served call is answered from the recovered window
	// without executing: the epoch stays put.
	before := host2.CheckpointEpoch()
	if _, errStr := host2.Dispatch(3, "chk.mark", nil); errStr != "" {
		t.Fatalf("resend of seq 3: %s", errStr)
	}
	if got := host2.CheckpointEpoch(); got != before {
		t.Fatalf("resend re-executed: epoch %d -> %d", before, got)
	}
	// Recovered state the old session never reclaims is not a lock: a
	// different session's first contact discards it and bootstraps fresh.
	// (After a reconnect has claimed it, as on host2 above, another
	// session is rejected as usual.)
	hello.SessionID = []byte{9, 9, 9, 9, 9, 9, 9, 9}
	data, err = hello.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := host2.Bootstrap(data, false); err == nil {
		t.Fatal("claimed state stolen by another session")
	}
	host2.Abandon(seglog.StepDone)
	host3 := NewHost()
	defer host3.Close()
	if _, err := host3.UseCheckpoints(dir); err != nil {
		t.Fatal(err)
	}
	if err := host3.Bootstrap(data, false); err != nil {
		t.Fatalf("fresh session rejected by unclaimed recovered state: %v", err)
	}
	if host3.StatusPayload() != nil {
		t.Fatal("fresh bootstrap kept the old session's progress")
	}
}

// A reconnecting driver that finds an empty, checkpoint-less daemon must
// be rejected — the seeded state it is counting on is gone.
func TestBootstrapRejectsReconnectToEmptyHost(t *testing.T) {
	schema, _ := relation.NewSchema("r", []string{"a", "b"})
	rules, _ := cfd.Parse("r1: ([a] -> [b], (_, _))", 0)
	h := &Hello{
		Proto: ProtoVersion, SessionID: []byte{1, 2, 3, 4, 5, 6, 7, 8},
		Kind: KindHorizontal, Site: 0, NumSites: 1,
		SchemaName: schema.Name, SchemaAttrs: schema.Attrs, Rules: rules,
	}
	data, err := h.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewHost().Bootstrap(data, true); err == nil {
		t.Fatal("reconnect to an empty host accepted")
	}
}

// A daemon restarted over a checkpoint written by an earlier format
// generation (whose delta log holds call payloads that today's handlers
// would mis-decode — gob in version 1, the one-node v.batchResolve in
// version 2 — or sits beside a gob snapshot no segment chain hangs off,
// version 3, or may hold calls to the retired per-update methods, version
// 4) must refuse it whole: typed error, nothing loaded, and a reconnecting
// driver told the state is gone.
func TestHostStartsEmptyOnOldFormatDeltaLog(t *testing.T) {
	for old := byte(1); old < checkpoint.FormatVersion; old++ {
		dir := t.TempDir()
		host := bootHost(t, dir, 100)
		for seq := uint64(1); seq <= 3; seq++ {
			if _, errStr := host.Dispatch(seq, "chk.mark", nil); errStr != "" {
				t.Fatalf("mark seq %d: %s", seq, errStr)
			}
		}
		logs, err := filepath.Glob(filepath.Join(dir, "delta-*.log"))
		if err != nil || len(logs) != 1 {
			t.Fatalf("delta logs = %v, %v; want exactly one", logs, err)
		}
		f, err := os.OpenFile(logs[0], os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Byte 4 of the header is the format version.
		if _, err := f.WriteAt([]byte{old}, 4); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		host.Abandon(seglog.StepDone)
		host2 := NewHost()
		defer host2.Close()
		stats, err := host2.UseCheckpoints(dir)
		if !errors.Is(err, xerr.ErrCheckpointCorrupt) {
			t.Fatalf("version %d: UseCheckpoints = %+v, %v; want ErrCheckpointCorrupt", old, stats, err)
		}
		if _, _, ok := host2.Hosting(); ok || stats.Recovered {
			t.Fatalf("version-%d checkpoint still loaded state", old)
		}
		if host2.StatusPayload() != nil {
			t.Fatal("empty daemon reports served calls")
		}
	}
}
