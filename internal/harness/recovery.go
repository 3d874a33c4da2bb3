package harness

import (
	"context"
	"fmt"
	"os"

	"repro/internal/centralized"
	"repro/internal/partition"
	"repro/internal/seglog"
	"repro/internal/session"
	"repro/internal/sitehost"
	"repro/internal/workload"
)

// Exp-recovery measures crash recovery on the checkpointed real-socket
// deployment: what a cold start costs (seeding every site from scratch),
// what steady state costs per batch, and what a warm restart costs — a
// site crashed at a batch boundary and recovered from its newest
// checkpoint plus delta log, with the driver replaying only the missed
// tail. All cost columns are call/record counts, a pure function of the
// scale's seed (the sweep measures no wall-clock), and
// the sweep asserts warm restart strictly cheaper than cold start and
// the post-recovery V equal to a fresh centralized detection.

// RecoveryRow is one engine's measurement.
type RecoveryRow struct {
	Style           string // "hor" or "ver"
	Batches         int    // steady-state batches applied before the crash
	BatchSize       int    // |∆D| per batch
	CheckpointEvery int    // snapshot compaction interval in marks

	// ColdStartCalls is the calls site 0 serves to be seeded from
	// scratch (bootstrap rounds plus the first durable mark).
	ColdStartCalls uint64
	// SteadyCalls is the calls site 0 serves across the steady batches.
	SteadyCalls uint64
	// WarmLocalReplay is the daemon-local delta-log records re-executed
	// when site 0 restarts from its checkpoint.
	WarmLocalReplay int
	// WarmWireReplay is the driver replay-log calls resent on rejoin
	// (0 at a batch boundary: the acked mark made it durable).
	WarmWireReplay int64
	// RecoveredEpoch/RecoveredSeq describe the checkpoint the restarted
	// site came back from.
	RecoveredEpoch uint64
	RecoveredSeq   uint64
	// Violations is |V| after the post-recovery batch, asserted equal to
	// a fresh centralized detection.
	Violations int
}

// RunRecovery measures cold start, steady state and warm restart for
// both distributed engines at the given scale.
func RunRecovery(sc Scale) ([]RecoveryRow, error) {
	var rows []RecoveryRow
	for _, style := range []string{"hor", "ver"} {
		row, err := runRecoveryStyle(sc, style)
		if err != nil {
			return nil, fmt.Errorf("recovery: %s: %w", style, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runRecoveryStyle(sc Scale, style string) (RecoveryRow, error) {
	const batches, every = 5, 3
	batch := sc.Unit / 20
	if batch < 10 {
		batch = 10
	}
	row := RecoveryRow{Style: style, Batches: batches, BatchSize: batch, CheckpointEvery: every}

	root, err := os.MkdirTemp("", "repro-recovery-")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(root)

	gen := workload.NewSized(workload.TPCH, sc.Seed, 8*sc.Unit)
	rules := gen.Rules(tpchRulesDefault)
	rel := gen.Relation(3 * sc.Unit)

	srvs := make([]*sitehost.Server, sc.Sites)
	addrs := make([]string, sc.Sites)
	defer func() {
		for _, srv := range srvs {
			if srv != nil {
				srv.Close()
				// Before root goes: a compactor may be writing under it.
				srv.Host().Close()
			}
		}
	}()
	for i := range srvs {
		srv, err := sitehost.Serve(sitehost.NewHost(), "127.0.0.1:0", nil)
		if err != nil {
			return row, err
		}
		srvs[i], addrs[i] = srv, srv.Addr()
	}

	opts := []session.Option{session.WithVertical(partition.RoundRobinVertical(gen.Schema(), sc.Sites)), session.WithOptimizer()}
	if style == "hor" {
		opts = []session.Option{session.WithHorizontal(partition.HashHorizontal("c_name", sc.Sites))}
	}
	opts = append(opts,
		session.WithTCPSites(addrs...),
		session.WithCheckpointDir(root),
		session.WithCheckpointEvery(every))
	sess, err := session.Open(rel, rules, opts...)
	if err != nil {
		return row, err
	}
	defer sess.Close()
	row.ColdStartCalls = sess.SiteCalls()[0]

	mirror := rel.Clone()
	for b := 0; b < batches; b++ {
		updates := gen.Updates(mirror, batch, 0.7)
		if _, err := sess.ApplyBatch(context.Background(), updates); err != nil {
			return row, err
		}
		if err := updates.Normalize().Apply(mirror); err != nil {
			return row, err
		}
	}
	row.SteadyCalls = sess.SiteCalls()[0] - row.ColdStartCalls

	// Crash site 0 at the batch boundary: listener down, in-memory state
	// gone, then a warm restart from the checkpoint dir on the same
	// address.
	if err := srvs[0].Close(); err != nil {
		return row, err
	}
	// The killed daemon's compactor is let finish (StepDone): the sweep's
	// columns are exact counts, and which snapshot the restart finds must
	// not depend on how far a background write got.
	srvs[0].Host().Abandon(seglog.StepDone)
	host := sitehost.NewHost()
	stats, err := host.UseCheckpoints(sitehost.SiteDir(root, 0))
	if err != nil {
		return row, err
	}
	if !stats.Recovered {
		return row, fmt.Errorf("site 0 found no checkpoint to recover")
	}
	if srvs[0], err = sitehost.Serve(host, addrs[0], nil); err != nil {
		return row, err
	}
	row.WarmLocalReplay = stats.Replayed
	row.RecoveredEpoch = stats.Epoch
	row.RecoveredSeq = stats.LastSeq

	// The post-recovery batch makes the driver rejoin the restarted site.
	updates := gen.Updates(mirror, batch, 0.7)
	if _, err := sess.ApplyBatch(context.Background(), updates); err != nil {
		return row, fmt.Errorf("post-recovery batch: %w", err)
	}
	if err := updates.Normalize().Apply(mirror); err != nil {
		return row, err
	}
	row.WarmWireReplay = sess.ReplayedCalls()
	row.Violations = sess.Violations().Len()

	if oracle := centralized.Detect(mirror, rules); !sess.Violations().Equal(oracle) {
		return row, fmt.Errorf("post-recovery V diverged from centralized detection")
	}
	warm := uint64(row.WarmLocalReplay) + uint64(row.WarmWireReplay)
	if warm >= row.ColdStartCalls {
		return row, fmt.Errorf("warm restart (%d replays) not cheaper than cold start (%d calls)",
			warm, row.ColdStartCalls)
	}
	return row, nil
}

// DriverRecoveryRow is one engine's driver-restart measurement: the
// driver dies at a clean round boundary and a new process resumes from
// the write-ahead journal (Exp-driver-recovery). All columns are
// deterministic call counts.
type DriverRecoveryRow struct {
	Style     string // "hor" or "ver"
	Batches   int    // steady-state batches journaled before the restart
	BatchSize int    // |∆D| per batch

	// SteadyCalls is the site-0 calls across the steady batches.
	SteadyCalls uint64
	// ResumedRound is the journal round the new driver resumed to.
	ResumedRound uint64
	// ResumeCalls is the site-0 calls the resume itself issued — 0: a
	// clean-boundary resume touches the cluster only with handshakes,
	// which ride outside the call sequence.
	ResumeCalls uint64
	// WireReplays is the driver replay-log calls resent on resume (0 at
	// a clean boundary: every daemon already holds an acked mark).
	WireReplays int64
	// Redriven counts journaled rounds the resume had to re-drive (0 at
	// a clean boundary).
	Redriven int
	// PostResumeCalls is the site-0 calls of the first batch the resumed
	// driver applies — steady-state cost, proving the resumed session is
	// a full writer.
	PostResumeCalls uint64
	// Violations is |V| after the post-resume batch, asserted equal to a
	// fresh centralized detection.
	Violations int
}

// RunDriverRecovery measures the driver-restart path for both
// distributed engines at the given scale: journaled steady state, a
// driver stop at a round boundary, exactly-once resume, and the first
// post-resume batch.
func RunDriverRecovery(sc Scale) ([]DriverRecoveryRow, error) {
	var rows []DriverRecoveryRow
	for _, style := range []string{"hor", "ver"} {
		row, err := runDriverRecoveryStyle(sc, style)
		if err != nil {
			return nil, fmt.Errorf("driver recovery: %s: %w", style, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runDriverRecoveryStyle(sc Scale, style string) (DriverRecoveryRow, error) {
	const batches = 5
	batch := sc.Unit / 20
	if batch < 10 {
		batch = 10
	}
	row := DriverRecoveryRow{Style: style, Batches: batches, BatchSize: batch}

	root, err := os.MkdirTemp("", "repro-driver-recovery-")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(root)
	jdir, err := os.MkdirTemp("", "repro-driver-journal-")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(jdir)

	gen := workload.NewSized(workload.TPCH, sc.Seed, 8*sc.Unit)
	rules := gen.Rules(tpchRulesDefault)
	rel := gen.Relation(3 * sc.Unit)

	srvs := make([]*sitehost.Server, sc.Sites)
	addrs := make([]string, sc.Sites)
	defer func() {
		for _, srv := range srvs {
			if srv != nil {
				srv.Close()
				// Before root goes: a compactor may be writing under it.
				srv.Host().Close()
			}
		}
	}()
	for i := range srvs {
		srv, err := sitehost.Serve(sitehost.NewHost(), "127.0.0.1:0", nil)
		if err != nil {
			return row, err
		}
		srvs[i], addrs[i] = srv, srv.Addr()
	}

	open := func() (*session.Session, error) {
		opts := []session.Option{session.WithVertical(partition.RoundRobinVertical(gen.Schema(), sc.Sites)), session.WithOptimizer()}
		if style == "hor" {
			opts = []session.Option{session.WithHorizontal(partition.HashHorizontal("c_name", sc.Sites))}
		}
		opts = append(opts,
			session.WithTCPSites(addrs...),
			session.WithCheckpointDir(root),
			session.WithJournalDir(jdir))
		return session.Open(rel, rules, opts...)
	}

	sess, err := open()
	if err != nil {
		return row, err
	}
	defer func() { sess.Close() }()
	cold := sess.SiteCalls()[0]

	mirror := rel.Clone()
	for b := 0; b < batches; b++ {
		updates := gen.Updates(mirror, batch, 0.7)
		if _, err := sess.ApplyBatch(context.Background(), updates); err != nil {
			return row, err
		}
		if err := updates.Normalize().Apply(mirror); err != nil {
			return row, err
		}
	}
	boundary := sess.SiteCalls()[0]
	row.SteadyCalls = boundary - cold

	// The driver stops at the round boundary; a new one resumes from the
	// journal. Resume must cost zero calls and zero replays: the folded
	// journal is the driver state, the daemons are reclaimed by
	// handshake.
	if err := sess.Close(); err != nil {
		return row, err
	}
	if sess, err = open(); err != nil {
		return row, fmt.Errorf("resume: %w", err)
	}
	js := sess.Journal()
	if !js.Resumed || js.InDoubt {
		return row, fmt.Errorf("resume stats %+v: journal did not resume cleanly", js)
	}
	row.ResumedRound = js.Rounds
	row.Redriven = js.Redriven
	row.ResumeCalls = sess.SiteCalls()[0] - boundary
	row.WireReplays = sess.ReplayedCalls()
	if row.ResumeCalls != 0 || row.WireReplays != 0 || row.Redriven != 0 {
		return row, fmt.Errorf("clean-boundary resume cost %d calls, %d replays, %d re-drives — want all zero",
			row.ResumeCalls, row.WireReplays, row.Redriven)
	}

	// The resumed driver is a full writer: one more steady batch.
	updates := gen.Updates(mirror, batch, 0.7)
	if _, err := sess.ApplyBatch(context.Background(), updates); err != nil {
		return row, fmt.Errorf("post-resume batch: %w", err)
	}
	if err := updates.Normalize().Apply(mirror); err != nil {
		return row, err
	}
	row.PostResumeCalls = sess.SiteCalls()[0] - boundary
	row.Violations = sess.Violations().Len()

	if oracle := centralized.Detect(mirror, rules); !sess.Violations().Equal(oracle) {
		return row, fmt.Errorf("post-resume V diverged from centralized detection")
	}
	return row, nil
}

// DriverRecoveryResult renders measured rows as the Exp-driver-recovery
// table.
func DriverRecoveryResult(rows []DriverRecoveryRow) *Result {
	r := &Result{
		Name: "Exp-driver-recovery", Figure: "robustness",
		Title:   "driver restart from the write-ahead journal on the TCP deployment",
		XLabel:  "engine",
		Columns: []string{"steady/batch", "round", "resume", "replays", "post/batch", "|V|"},
		Exact: []string{"batches", "batch_size", "steady_calls", "resumed_round", "resume_calls",
			"wire_replays", "redriven", "post_resume_calls", "violations"},
	}
	for _, row := range rows {
		r.Points = append(r.Points, Point{
			X:     float64(len(r.Points)),
			Label: row.Style,
			Values: map[string]float64{
				"steady/batch": ratio(float64(row.SteadyCalls), float64(row.Batches)),
				"round":        float64(row.ResumedRound),
				"resume":       float64(row.ResumeCalls),
				"replays":      float64(row.WireReplays),
				"post/batch":   float64(row.PostResumeCalls),
				"|V|":          float64(row.Violations),

				"batches": float64(row.Batches), "batch_size": float64(row.BatchSize),
				"steady_calls": float64(row.SteadyCalls), "resumed_round": float64(row.ResumedRound),
				"resume_calls": float64(row.ResumeCalls), "wire_replays": float64(row.WireReplays),
				"redriven": float64(row.Redriven), "post_resume_calls": float64(row.PostResumeCalls),
				"violations": float64(row.Violations),
			},
		})
	}
	r.Notes = append(r.Notes,
		"resume = site-0 calls issued by the journal resume itself (asserted 0: reconnect handshakes only), replays = driver replay-log calls resent (asserted 0)",
		"post/batch = the first post-resume batch's calls, and its V asserted equal to a fresh centralized detection")
	return r
}

// RecoveryResult renders measured rows as the Exp-recovery table.
func RecoveryResult(rows []RecoveryRow) *Result {
	r := &Result{
		Name: "Exp-recovery", Figure: "robustness",
		Title:   "cold start vs warm restart on the checkpointed TCP deployment",
		XLabel:  "engine",
		Columns: []string{"cold", "steady/batch", "warmLocal", "warmWire", "epoch", "|V|"},
		Exact: []string{"batches", "batch_size", "checkpoint_every", "cold_start_calls", "steady_calls",
			"warm_local_replay", "warm_wire_replay", "recovered_epoch", "recovered_seq", "violations"},
	}
	for _, row := range rows {
		r.Points = append(r.Points, Point{
			X:     float64(len(r.Points)),
			Label: row.Style,
			Values: map[string]float64{
				"cold":         float64(row.ColdStartCalls),
				"steady/batch": ratio(float64(row.SteadyCalls), float64(row.Batches)),
				"warmLocal":    float64(row.WarmLocalReplay),
				"warmWire":     float64(row.WarmWireReplay),
				"epoch":        float64(row.RecoveredEpoch),
				"|V|":          float64(row.Violations),

				"batches": float64(row.Batches), "batch_size": float64(row.BatchSize),
				"checkpoint_every": float64(row.CheckpointEvery),
				"cold_start_calls": float64(row.ColdStartCalls), "steady_calls": float64(row.SteadyCalls),
				"warm_local_replay": float64(row.WarmLocalReplay), "warm_wire_replay": float64(row.WarmWireReplay),
				"recovered_epoch": float64(row.RecoveredEpoch), "recovered_seq": float64(row.RecoveredSeq),
				"violations": float64(row.Violations),
			},
		})
	}
	r.Notes = append(r.Notes,
		"cold = site-0 calls to seed from scratch; warmLocal = delta-log records replayed by the restarted daemon; warmWire = driver replay-log calls resent on rejoin",
		"warm restart asserted strictly cheaper than cold start, and post-recovery V asserted equal to a fresh centralized detection")
	return r
}
