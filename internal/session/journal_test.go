package session

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/journal"
	"repro/internal/partition"
	"repro/internal/seglog"
	"repro/internal/sitehost"
	"repro/internal/workload"
	"repro/internal/xerr"
)

// TestJournalResumeCleanBoundary is the exactly-once resume smoke test:
// a journaled session applies batches and rule churn (crossing a
// journal compaction), closes at a clean round boundary, and a second
// Open over the same directories must resume — folded state, reconnect
// handshakes only — instead of reseeding. The resumed session's rules,
// rows, watermarks and violation set must be exactly the crashed
// driver's, with zero replayed wire calls, and it must keep writing.
func TestJournalResumeCleanBoundary(t *testing.T) {
	for _, kind := range []string{"horizontal", "vertical"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			gen := workload.NewSized(workload.TPCH, 23, 600)
			pool := gen.Rules(5)
			rel := gen.Relation(150)
			const sites = 3
			ckpt, jdir := t.TempDir(), t.TempDir()

			opt := func() Option {
				if kind == "horizontal" {
					return WithHorizontal(partition.HashHorizontal("c_name", sites))
				}
				return WithVertical(partition.RoundRobinVertical(rel.Schema, sites))
			}
			addrs, _ := serveHosts(t, sites)
			open := func() *Session {
				t.Helper()
				s, err := Open(rel, pool[:3], opt(),
					WithTCPSites(addrs...),
					WithCheckpointDir(ckpt),
					WithJournalDir(jdir),
					WithJournalEvery(3)) // compact mid-run: resume folds base + tail
				if err != nil {
					t.Fatal(err)
				}
				return s
			}

			sess := open()
			mirror := rel.Clone()
			active := append(pool[:0:0], pool[:3]...)
			batch := func(s *Session, step string) {
				t.Helper()
				updates := gen.Updates(mirror, 15, 0.6)
				if _, err := s.ApplyBatch(context.Background(), updates); err != nil {
					t.Fatalf("%s: ApplyBatch: %v", step, err)
				}
				if err := updates.Normalize().Apply(mirror); err != nil {
					t.Fatal(err)
				}
				if oracle := centralized.Detect(mirror, active); !s.Violations().Equal(oracle) {
					t.Fatalf("%s: V diverged from centralized oracle", step)
				}
			}

			batch(sess, "round 1")
			batch(sess, "round 2")
			if _, err := sess.AddRules(pool[3]); err != nil {
				t.Fatalf("AddRules: %v", err)
			}
			active = append(active, pool[3])
			if _, err := sess.RemoveRules(pool[0].ID); err != nil {
				t.Fatalf("RemoveRules: %v", err)
			}
			active = append(active[:0:0], active[1:]...)
			batch(sess, "round 5")

			calls := sess.SiteCalls()
			rounds := sess.Journal().Rounds
			if rounds != 5 {
				t.Fatalf("journaled %d rounds, want 5", rounds)
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}

			// Same dirs, daemons untouched: this Open must resume.
			sess2 := open()
			defer sess2.Close()
			js := sess2.Journal()
			if !js.Resumed || js.StartedCorrupt || js.InDoubt || js.Redriven != 0 || js.Rounds != rounds {
				t.Fatalf("resume stats = %+v, want clean resume at round %d", js, rounds)
			}
			if n := sess2.ReplayedCalls(); n != 0 {
				t.Fatalf("clean-boundary resume replayed %d calls, want 0", n)
			}
			if got := sess2.SiteCalls(); !reflect.DeepEqual(got, calls) {
				t.Fatalf("resume moved the call watermarks: %v, want %v", got, calls)
			}
			if sess2.Rows() != mirror.Len() {
				t.Fatalf("resumed Rows = %d, want %d", sess2.Rows(), mirror.Len())
			}
			inForce := make(map[string]bool)
			for _, r := range sess2.Rules() {
				inForce[r.ID] = true
			}
			if len(inForce) != len(active) {
				t.Fatalf("resumed %d rules, want %d", len(inForce), len(active))
			}
			for _, r := range active {
				if !inForce[r.ID] {
					t.Fatalf("resumed rule set lost %s", r.ID)
				}
			}
			if oracle := centralized.Detect(mirror, active); !sess2.Violations().Equal(oracle) {
				t.Fatal("resumed V diverged from centralized oracle")
			}

			// The resumed session is a full writer, not a read-only replica.
			batch(sess2, "post-resume batch")
			if _, err := sess2.AddRules(pool[4]); err != nil {
				t.Fatalf("post-resume AddRules: %v", err)
			}
			active = append(active, pool[4])
			batch(sess2, "post-resume rule batch")
		})
	}
}

// TestJournalRedriveAfterDriverCrash pins the partial-round recovery
// path: a mid-batch site loss quarantines the round in doubt (reads
// keep serving the pre-round epoch), the driver "dies" without settling
// it, and the next Open over the same journal re-drives the dangling
// intent to completion under its original sequence numbers.
func TestJournalRedriveAfterDriverCrash(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 31, 500)
	rules := gen.Rules(3)
	rel := gen.Relation(120)
	const sites = 3
	ckpt, jdir := t.TempDir(), t.TempDir()

	addrs, srvs := serveHosts(t, sites)
	open := func() (*Session, error) {
		return Open(rel, rules,
			WithHorizontal(partition.HashHorizontal("c_name", sites)),
			WithTCPSites(addrs...),
			WithCheckpointDir(ckpt),
			WithJournalDir(jdir),
			WithTCPRetryBudget(400*time.Millisecond),
			WithInDoubtRetryBudget(0)) // no in-process re-drives: settle on next Open
	}
	sess, err := open()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	mirror := rel.Clone()
	apply := func(s *Session, step string) {
		t.Helper()
		updates := gen.Updates(mirror, 12, 0.6)
		if _, err := s.ApplyBatch(context.Background(), updates); err != nil {
			t.Fatalf("%s: ApplyBatch: %v", step, err)
		}
		if err := updates.Normalize().Apply(mirror); err != nil {
			t.Fatal(err)
		}
		if oracle := centralized.Detect(mirror, rules); !s.Violations().Equal(oracle) {
			t.Fatalf("%s: V diverged from centralized oracle", step)
		}
	}
	apply(sess, "round 1")
	apply(sess, "round 2")

	// Take site 1 down and fail a round mid-flight: it must quarantine
	// as in doubt, wrapping both sentinels for errors.Is callers.
	if err := srvs[1].Close(); err != nil {
		t.Fatal(err)
	}
	epoch := sess.Epoch()
	inDoubt := gen.Updates(mirror, 12, 0.6)
	_, err = sess.ApplyBatch(context.Background(), inDoubt)
	if !errors.Is(err, xerr.ErrBatchInDoubt) || !errors.Is(err, xerr.ErrSiteDown) {
		t.Fatalf("mid-round site loss: got %v, want ErrBatchInDoubt wrapping ErrSiteDown", err)
	}
	js := sess.Journal()
	if !js.InDoubt || js.Rounds != 2 {
		t.Fatalf("after quarantine: stats = %+v, want InDoubt at round 2", js)
	}
	// Reads still serve the pre-round epoch, and a further write is
	// refused (the cluster may hold a partial application).
	if got := sess.Epoch(); got != epoch {
		t.Fatalf("in-doubt round published epoch %d, want reads pinned at %d", got, epoch)
	}
	if oracle := centralized.Detect(mirror, rules); len(sess.Query()) != len(oracle.Tuples()) {
		t.Fatalf("in-doubt reads: Query served %d tuples, want the pre-round %d",
			len(sess.Query()), len(oracle.Tuples()))
	}
	if _, err := sess.ApplyBatch(context.Background(), gen.Updates(mirror, 5, 0.5)); !errors.Is(err, xerr.ErrBatchInDoubt) {
		t.Fatalf("write behind an in-doubt round: got %v, want ErrBatchInDoubt", err)
	}

	// The driver "crashes": connections and journal handle drop with the
	// round still dangling. Site 1 comes back warm, and the next Open
	// must fold the journal and re-drive the intent to completion.
	sess.Abandon(seglog.StepRotated)
	sess.closeOnOpenErr()
	srv, err := sitehost.Serve(srvs[1].Host(), addrs[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	sess2, err := open()
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	js = sess2.Journal()
	if !js.Resumed || js.InDoubt || js.Redriven != 1 || js.Rounds != 3 {
		t.Fatalf("post-crash resume stats = %+v, want round 3 settled by one re-drive", js)
	}
	if err := inDoubt.Normalize().Apply(mirror); err != nil {
		t.Fatal(err)
	}
	if oracle := centralized.Detect(mirror, rules); !sess2.Violations().Equal(oracle) {
		t.Fatal("re-driven V diverged from centralized oracle")
	}
	apply(sess2, "round 4")
}

// TestJournalCorruptStartsFresh pins the corrupt-journal driver path:
// Open finds an unreadable journal, resets it and starts a fresh
// session (new identity, full reseed) rather than failing or resuming
// bogus state. The daemons are warm-restarted from their checkpoints
// first so the fresh session can claim them.
func TestJournalCorruptStartsFresh(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 37, 400)
	rules := gen.Rules(3)
	rel := gen.Relation(100)
	const sites = 2
	ckpt, jdir := t.TempDir(), t.TempDir()

	addrs, srvs := serveHosts(t, sites)
	open := func() *Session {
		t.Helper()
		s, err := Open(rel, rules,
			WithHorizontal(partition.HashHorizontal("c_name", sites)),
			WithTCPSites(addrs...),
			WithCheckpointDir(ckpt),
			WithJournalDir(jdir))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	sess := open()
	mirror := rel.Clone()
	for i := 0; i < 2; i++ {
		updates := gen.Updates(mirror, 10, 0.6)
		if _, err := sess.ApplyBatch(context.Background(), updates); err != nil {
			t.Fatal(err)
		}
		if err := updates.Normalize().Apply(mirror); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte mid-file: a non-trailing record fails its CRC, which
	// is corruption (not a torn tail) — the journal must be abandoned.
	files, err := filepath.Glob(filepath.Join(jdir, "*-*.*"))
	if err != nil || len(files) < 2 {
		t.Fatalf("no journal epoch written: %v (err %v)", files, err)
	}
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xFF
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Warm-restart the daemons from their checkpoints: recovered state
	// is unclaimed, so the fresh session's genesis hellos may take the
	// daemons over (a live daemon would refuse a second session).
	for i, s := range srvs {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// The old daemon dies with its compactor, if one is running, at a
		// different step on every site.
		s.Host().Abandon(seglog.Step(1 + i%4))
		host := sitehost.NewHost()
		if _, err := host.UseCheckpoints(sitehost.SiteDir(ckpt, i)); err != nil {
			t.Fatal(err)
		}
		srv, err := sitehost.Serve(host, addrs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close(); srv.Host().Close() })
	}

	sess2 := open()
	defer sess2.Close()
	js := sess2.Journal()
	if !js.StartedCorrupt || js.Resumed || js.Rounds != 0 {
		t.Fatalf("open over a corrupt journal: stats = %+v, want a fresh start", js)
	}
	// Fresh means fresh: the session reseeded from the Open arguments,
	// not the journaled batches, and keeps working.
	mirror = rel.Clone()
	if oracle := centralized.Detect(mirror, rules); !sess2.Violations().Equal(oracle) {
		t.Fatal("fresh-after-corrupt V diverged from centralized oracle")
	}
	updates := gen.Updates(mirror, 10, 0.6)
	if _, err := sess2.ApplyBatch(context.Background(), updates); err != nil {
		t.Fatalf("ApplyBatch after corrupt-journal restart: %v", err)
	}
	if err := updates.Normalize().Apply(mirror); err != nil {
		t.Fatal(err)
	}
	if oracle := centralized.Detect(mirror, rules); !sess2.Violations().Equal(oracle) {
		t.Fatal("post-restart V diverged from centralized oracle")
	}
}

// TestJournalVersion1StartsFresh: a journal directory written by format
// version 1 (one gob journal-<epoch>.wal per epoch) is never resumed in
// part — Open reports it corrupt, clears it and starts a fresh session.
func TestJournalVersion1StartsFresh(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 41, 300)
	rules := gen.Rules(2)
	rel := gen.Relation(60)
	const sites = 2
	jdir := t.TempDir()
	old := filepath.Join(jdir, "journal-0000000000000002.wal")
	if err := os.WriteFile(old, []byte("RJRN\x01\x01 a gob stream used to follow"), 0o644); err != nil {
		t.Fatal(err)
	}
	addrs, _ := serveHosts(t, sites)
	sess, err := Open(rel, rules,
		WithHorizontal(partition.HashHorizontal("c_name", sites)),
		WithTCPSites(addrs...),
		WithCheckpointDir(t.TempDir()),
		WithJournalDir(jdir))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if js := sess.Journal(); !js.StartedCorrupt || js.Resumed || js.Rounds != 0 {
		t.Fatalf("open over a version-1 journal: stats = %+v, want a fresh start", js)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Fatalf("version-1 journal file still on disk (stat err %v)", err)
	}
	if oracle := centralized.Detect(rel, rules); !sess.Violations().Equal(oracle) {
		t.Fatal("fresh-after-version-1 V diverged from centralized oracle")
	}
}

// TestInDoubtSessionClosable is the deadlock regression for satellite
// robustness: while a journaled session is retrying an in-doubt round
// inside its backoff loop (writer and state locks held), lock-free
// reads must keep serving the last published epoch and Close must
// interrupt the loop promptly instead of deadlocking.
func TestInDoubtSessionClosable(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 41, 400)
	rules := gen.Rules(3)
	rel := gen.Relation(100)
	const sites = 3
	ckpt, jdir := t.TempDir(), t.TempDir()

	addrs, srvs := serveHosts(t, sites)
	sess, err := Open(rel, rules,
		WithHorizontal(partition.HashHorizontal("c_name", sites)),
		WithTCPSites(addrs...),
		WithCheckpointDir(ckpt),
		WithJournalDir(jdir),
		WithTCPRetryBudget(300*time.Millisecond),
		WithInDoubtRetryBudget(time.Minute)) // far beyond the test: Close must cut it short
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	mirror := rel.Clone()
	updates := gen.Updates(mirror, 10, 0.6)
	if _, err := sess.ApplyBatch(context.Background(), updates); err != nil {
		t.Fatal(err)
	}
	if err := updates.Normalize().Apply(mirror); err != nil {
		t.Fatal(err)
	}
	oracle := centralized.Detect(mirror, rules)
	epoch := sess.Epoch()

	// Site 2 stays down: the next round will spin in the in-doubt
	// backoff loop until Close interrupts it.
	if err := srvs[2].Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := sess.ApplyBatch(context.Background(), gen.Updates(mirror, 10, 0.6))
		done <- err
	}()

	// Let the writer enter its retry loop, then exercise the lock-free
	// read surface while the write locks are held.
	time.Sleep(500 * time.Millisecond)
	if got := sess.Epoch(); got != epoch {
		t.Fatalf("epoch moved to %d during an in-doubt round, want %d", got, epoch)
	}
	if got := len(sess.Query()); got != len(oracle.Tuples()) {
		t.Fatalf("reads under in-doubt retry served %d tuples, want %d", got, len(oracle.Tuples()))
	}
	if got, want := sess.Snapshot().Measures().Rows, mirror.Len(); got != want {
		t.Fatalf("reads under in-doubt retry served %d rows, want %d", got, want)
	}

	start := time.Now()
	if err := sess.Close(); err != nil {
		t.Fatalf("Close during in-doubt retry: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Close took %v, want prompt interruption of the backoff loop", elapsed)
	}
	select {
	case err := <-done:
		if !errors.Is(err, xerr.ErrBatchInDoubt) {
			t.Fatalf("interrupted writer: got %v, want ErrBatchInDoubt", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writer still blocked after Close")
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestJournalRefusedRuleChange: a rule change the session refuses
// (a duplicate or malformed rule to add, an unknown or twice-listed id to
// remove) writes no journal intent, sends no call and changes nothing,
// so the next round commits and a reopen over the same directories
// resumes instead of finding an intent left open.
func TestJournalRefusedRuleChange(t *testing.T) {
	for _, kind := range []string{"horizontal", "vertical"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			gen := workload.NewSized(workload.TPCH, 23, 600)
			rules := gen.Rules(3)
			rel := gen.Relation(150)
			const sites = 3
			ckpt, jdir := t.TempDir(), t.TempDir()
			opt := WithHorizontal(partition.HashHorizontal("c_name", sites))
			if kind == "vertical" {
				opt = WithVertical(partition.RoundRobinVertical(rel.Schema, sites))
			}
			addrs, _ := serveHosts(t, sites)
			open := func() *Session {
				t.Helper()
				s, err := Open(rel, rules, opt, WithTCPSites(addrs...), WithCheckpointDir(ckpt), WithJournalDir(jdir))
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			journalBytes := func() int64 {
				t.Helper()
				entries, err := os.ReadDir(jdir)
				if err != nil {
					t.Fatal(err)
				}
				var n int64
				for _, e := range entries {
					info, err := e.Info()
					if err != nil {
						t.Fatal(err)
					}
					n += info.Size()
				}
				return n
			}

			sess := open()
			unknownAttr := rules[2]
			unknownAttr.ID = "unknown-attribute"
			unknownAttr.LHS = append([]string{"no such attribute"}, rules[2].LHS[1:]...)
			refusals := []struct {
				name string
				run  func() error
				want error
			}{
				{"AddRules: id in force", func() error { _, err := sess.AddRules(rules[0]); return err }, xerr.ErrDuplicateRule},
				{"AddRules: unknown attribute", func() error { _, err := sess.AddRules(unknownAttr); return err }, xerr.ErrUnknownAttribute},
				{"RemoveRules: unknown id", func() error { _, err := sess.RemoveRules("no such rule"); return err }, xerr.ErrUnknownRule},
				{"RemoveRules: id listed twice", func() error { _, err := sess.RemoveRules(rules[0].ID, rules[0].ID); return err }, xerr.ErrDuplicateRule},
			}
			for _, r := range refusals {
				calls, stats, epoch, inForce, jb := sess.SiteCalls(), sess.Stats(), sess.Epoch(), sess.Rules(), journalBytes()
				if err := r.run(); !errors.Is(err, r.want) {
					t.Fatalf("%s: %v, want %v", r.name, err, r.want)
				}
				if got := journalBytes(); got != jb {
					t.Fatalf("%s: the journal grew %d → %d bytes: an intent was written", r.name, jb, got)
				}
				if got := sess.SiteCalls(); !reflect.DeepEqual(got, calls) {
					t.Fatalf("%s: site calls moved %v → %v", r.name, calls, got)
				}
				if got := sess.Stats(); !metersEqual(got, stats) {
					t.Fatalf("%s: meters moved", r.name)
				}
				if got := sess.Epoch(); got != epoch {
					t.Fatalf("%s: epoch moved %d → %d", r.name, epoch, got)
				}
				if got := sess.Rules(); !reflect.DeepEqual(got, inForce) {
					t.Fatalf("%s: rules in force moved", r.name)
				}
			}

			mirror := rel.Clone()
			updates := gen.Updates(mirror, 15, 0.6)
			if _, err := sess.ApplyBatch(context.Background(), updates); err != nil {
				t.Fatalf("batch after the refusals: %v", err)
			}
			if err := updates.Normalize().Apply(mirror); err != nil {
				t.Fatal(err)
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}

			sess2 := open()
			defer sess2.Close()
			if js := sess2.Journal(); !js.Resumed || js.StartedCorrupt || js.InDoubt || js.Rounds != 1 {
				t.Fatalf("reopen stats = %+v, want a clean resume at round 1", js)
			}
			if oracle := centralized.Detect(mirror, rules); !sess2.Violations().Equal(oracle) {
				t.Fatal("resumed V diverged from centralized oracle")
			}
		})
	}
}

// TestJournalPendingRuleIntentIsAdmitted: a journal is input read from
// disk, so the rule round it left dangling must pass the admission a
// live round passes before its intent is written. One that does not is a
// corrupt journal; one that does folds.
func TestJournalPendingRuleIntentIsAdmitted(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 43, 300)
	rules := gen.Rules(3)
	rel := gen.Relation(40)
	cfg := config{kind: Horizontal, tcpAddrs: []string{"a", "b"}}
	state := func(it journal.Intent) *journal.State {
		it.Round, it.Seqs = 1, []uint64{0, 0}
		return &journal.State{
			Base: &journal.Base{
				SessionID: make([]byte, 8), Kind: cfg.kind.String(), Sites: 2,
				SchemaName: rel.Schema.Name, SchemaAttrs: rel.Schema.Attrs,
				Seqs: []uint64{0, 0}, Rules: rules[:2], Tuples: rel.Tuples(),
			},
			Intents: []journal.Intent{it},
		}
	}
	unknownAttr := rules[2]
	unknownAttr.RHS = "no such attribute"
	for _, c := range []struct {
		name string
		it   journal.Intent
		want error
	}{
		{"add: id in force", journal.Intent{Op: journal.OpAddRules, Rules: rules[1:3]}, xerr.ErrDuplicateRule},
		{"add: unknown attribute", journal.Intent{Op: journal.OpAddRules, Rules: []cfd.CFD{unknownAttr}}, xerr.ErrUnknownAttribute},
		{"remove: unknown id", journal.Intent{Op: journal.OpRemoveRules, RuleIDs: []string{rules[2].ID}}, xerr.ErrUnknownRule},
		{"remove: id listed twice", journal.Intent{Op: journal.OpRemoveRules, RuleIDs: []string{rules[0].ID, rules[0].ID}}, xerr.ErrDuplicateRule},
		{"add", journal.Intent{Op: journal.OpAddRules, Rules: rules[2:3]}, nil},
		{"remove", journal.Intent{Op: journal.OpRemoveRules, RuleIDs: []string{rules[0].ID}}, nil},
	} {
		res, err := foldJournal(state(c.it), rel, cfg)
		switch {
		case c.want == nil && (err != nil || res.pending == nil):
			t.Errorf("%s: fold = %v, want the pending round kept", c.name, err)
		case c.want != nil && (!errors.Is(err, xerr.ErrJournalCorrupt) || !errors.Is(err, c.want)):
			t.Errorf("%s: fold = %v, want ErrJournalCorrupt wrapping %v", c.name, err, c.want)
		}
	}
}
