// Package session is the engine-agnostic service layer over the
// detection engines: one constructor, Open, builds a centralized,
// horizontal or vertical incremental detection system behind a single
// handle with functional options, and the handle adds the capabilities a
// long-lived service needs that the raw engines structurally could not
// offer —
//
//   - live rule management: AddRules/RemoveRules seed or retire only the
//     affected rules' per-site state and violation marks, through metered
//     seed-delta rounds, instead of rebuilding the system;
//   - a read-side query surface: Query (per-rule/per-tuple drill-down
//     answered from posting indexes in O(answer)), Count histograms and
//     the drastic/MI-style aggregate inconsistency measures;
//   - subscriptions: Subscribe streams every applied batch's ∆V;
//   - streaming: Run pumps a timed batch source through the engine and
//     meters every batch (run.go);
//   - lifecycle: context-aware ApplyBatch/Run, and Close that reliably
//     tears down site connections and leaves no goroutine behind.
//
// The three engines — the centralized maintainer, §4/§5's incVer and
// §6's incHor — plug straight into the one engine interface below. The
// experiment harness, the tools and every example drive them through
// this one handle; the root repro package re-exports it as repro.Open.
package session

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/horizontal"
	"repro/internal/journal"
	"repro/internal/netwire"
	"repro/internal/network"
	"repro/internal/optimizer"
	"repro/internal/relation"
	"repro/internal/sitehost"
	"repro/internal/vertical"
	"repro/internal/xerr"
)

// engine is the paper's one incremental contract — given ∆D, maintain
// V(Σ, D) and return ∆V — and the whole surface a Session drives. The
// centralized maintainer, incVer (§4/§5) and incHor (§6) satisfy it
// directly; what only some engines have (a protocol cursor, resume) is
// asked for through protocolCursorEngine and adoptEngine (recover.go).
type engine interface {
	// Apply runs the incremental algorithm on ∆D and returns ∆V.
	Apply(relation.UpdateList) (*cfd.Delta, error)
	// BatchDetect recomputes V(Σ, D) from scratch with the engine's
	// batch baseline, leaving the maintained set alone.
	BatchDetect() (*cfd.Violations, error)
	// Violations returns the maintained violation set.
	Violations() *cfd.Violations
	// Rules returns the rule set in force.
	Rules() []cfd.CFD
	// AddRules seeds only the new rules' state and marks; returns ∆V.
	// The session has admitted the rules (admit).
	AddRules([]cfd.CFD) (*cfd.Delta, error)
	// RemoveRules retires rules by id; returns the retired ∆V. The
	// session has admitted the ids (admit).
	RemoveRules([]string) (*cfd.Delta, error)
}

var (
	_ engine = (*centralized.Incremental)(nil)
	_ engine = (*horizontal.System)(nil)
	_ engine = (*vertical.System)(nil)
)

// Session is a live, engine-agnostic incremental detection handle. All
// methods are safe for concurrent use. Writes (ApplyBatch, rule
// management, Run) serialize on the writer lock wmu; each applied batch
// publishes an immutable epoch of the violation set, and the read
// surface (Query, Count, Measures, Snapshot) answers from the latest
// epoch without taking any lock — a long Run never stalls readers.
type Session struct {
	// wmu serializes writers end-to-end: Run holds it for the whole
	// stream so batches from two writers never interleave.
	wmu sync.Mutex
	// mu guards the mutable session state (engine, rows, watchers) and
	// is held only for the duration of one batch, not a whole Run.
	mu      sync.Mutex
	cfg     config
	schema  *relation.Schema
	eng     engine
	cluster *network.Cluster      // nil when centralized
	plan    *optimizer.Plan       // the §5 HEV plan, vertical only
	tcp     *network.TCPTransport // nil without WithTCPSites
	rows    int
	seq     int

	// stores, non-nil with WithStorageDir, are the out-of-core backing
	// stores the centralized engine pages through; Close flushes and
	// closes them.
	stores *centralized.Storage

	// Crash safety (WithJournalDir; see recover.go). mirror tracks the
	// maintained relation driver-side, the compaction base and the V
	// re-derivation source for re-drives. pending is the quarantined
	// in-doubt round, nil in steady state. closing lets the in-doubt
	// backoff loop notice Close without Close having to take wmu first.
	sid          [8]byte
	jnl          *journal.Store
	mirror       *relation.Relation
	jround       uint64
	sinceCompact int
	pending      *pendingOp
	redriven     int
	jResumed     bool
	jCorrupt     bool
	closing      atomic.Bool

	// read is the lock-free read surface: an immutable cut of the
	// violation set plus the rule set in force, swapped atomically after
	// every applied batch or rule change.
	read atomic.Pointer[readState]

	closed   bool
	watchers map[int]*Subscription
	nextW    int
}

// readState is one published read epoch: the immutable violation view
// plus the row count and rule set it corresponds to. Readers load it
// with one atomic pointer read; writers build a fresh one under s.mu.
type readState struct {
	view    *cfd.EpochView
	rows    int
	rules   []cfd.CFD       // rules in force at this epoch
	inForce map[string]bool // index over rules
}

// publishRead publishes the engine's current violation state as a new
// epoch and swaps it into the lock-free read surface. rulesChanged
// rebuilds the in-force rule index; otherwise it is shared with the
// previous state. Callers hold s.mu.
func (s *Session) publishRead(rulesChanged bool) *cfd.EpochView {
	view := s.eng.Violations().Publish()
	st := &readState{view: view, rows: s.rows}
	if prev := s.read.Load(); prev != nil && !rulesChanged {
		st.rules, st.inForce = prev.rules, prev.inForce
	} else {
		st.rules = append([]cfd.CFD(nil), s.eng.Rules()...)
		st.inForce = make(map[string]bool, len(st.rules))
		for _, r := range st.rules {
			st.inForce[r.ID] = true
		}
	}
	s.read.Store(st)
	return view
}

// Open builds, partitions and seeds a detection system over rel with the
// given rules, per the options (default: the single-site centralized
// maintainer), and returns the live handle. rel itself is not mutated by
// subsequent batches.
func Open(rel *relation.Relation, rules []cfd.CFD, opts ...Option) (*Session, error) {
	cfg := config{maxFanout: -1}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	s := &Session{cfg: cfg, schema: rel.Schema, rows: rel.Len(), watchers: make(map[int]*Subscription)}

	// Journal recovery, ahead of engine construction: a valid journal
	// turns this Open into a resume (folded driver state, SkipSeed
	// engines, reconnect handshakes); a corrupt one is reset and the
	// session starts fresh under a new identity.
	var res *resumeState
	if cfg.journalDir != "" {
		jnl, err := journal.Open(cfg.journalDir)
		if err != nil {
			return nil, err
		}
		st, err := jnl.Recover()
		if err == nil && st != nil {
			res, err = foldJournal(st, rel, cfg)
		}
		switch {
		case errors.Is(err, xerr.ErrJournalCorrupt):
			if rerr := jnl.Reset(); rerr != nil {
				jnl.Close()
				return nil, rerr
			}
			s.jCorrupt = true
		case err != nil:
			jnl.Close()
			return nil, err
		}
		s.jnl = jnl
	}
	// On resume the rel/rules arguments only pin the schema: the folded
	// journal state is the truth about data and rules in force.
	buildRel, buildRules := rel, rules
	if res != nil {
		buildRel, buildRules = res.mirror, res.rules
		s.sid = res.sid
	} else if len(cfg.tcpAddrs) > 0 {
		var err error
		if s.sid, err = newSessionID(); err != nil {
			s.closeOnOpenErr()
			return nil, err
		}
	}

	switch cfg.kind {
	case Centralized:
		if cfg.storageDir != "" {
			st, err := openStorage(cfg.storageDir, cfg.pageCacheBudget())
			if err != nil {
				return nil, err
			}
			inc, err := centralized.NewIncrementalStored(rel, rules, st)
			if err != nil {
				st.Close()
				return nil, err
			}
			s.eng, s.stores = inc, &st
			break
		}
		inc, err := centralized.NewIncremental(rel, rules)
		if err != nil {
			return nil, err
		}
		s.eng = inc
	case Horizontal:
		hellos, err := sitehost.HorizontalHellos(s.sid, buildRel.Schema, buildRules, cfg.hScheme.NumSites(), cfg.checkpointing())
		if err == nil {
			err = s.reachSites(hellos, res)
		}
		var sys *horizontal.System
		if err == nil {
			sys, err = horizontal.NewSystem(s.cluster, buildRel, cfg.hScheme, buildRules, horizontal.Options{
				DisableMD5: cfg.disableMD5,
				SkipSeed:   res != nil,
			})
		}
		if err != nil {
			s.closeOnOpenErr()
			return nil, err
		}
		s.eng = sys
	case Vertical:
		// The sites run the exact plan the driver runs: plan here (or
		// take the journal's folded plan) and ship a copy in every hello.
		plan := res.planOrNil()
		var err error
		if plan == nil {
			plan, err = vertical.PlanFor(buildRules, cfg.vScheme, cfg.useOptimizer)
		}
		var hellos [][]byte
		if err == nil {
			hellos, err = sitehost.VerticalHellos(s.sid, buildRel.Schema, cfg.vScheme, plan, buildRules, cfg.checkpointing())
		}
		if err == nil {
			err = s.reachSites(hellos, res)
		}
		var sys *vertical.System
		if err == nil {
			sys, err = vertical.NewSystem(s.cluster, buildRel, cfg.vScheme, plan, buildRules, vertical.Options{SkipSeed: res != nil})
		}
		if err != nil {
			s.closeOnOpenErr()
			return nil, err
		}
		s.eng, s.plan = sys, plan
	}
	if s.cluster != nil {
		if cfg.maxFanout >= 0 {
			s.cluster.SetMaxFanout(cfg.maxFanout)
		}
	}
	if res != nil {
		// Resume: re-derive V, restore the protocol cursor, and verify
		// every daemon's durable watermark by handshake — no marks, no
		// re-metered calls.
		if err := s.finishResume(res); err != nil {
			s.Close()
			return nil, err
		}
	} else {
		// Seeding succeeded: make it the daemons' first durable point,
		// so a crash during steady state never redoes the bootstrap.
		if err := s.markSites(); err != nil {
			s.Close()
			return nil, err
		}
		if s.jnl != nil {
			// Genesis journal epoch: the seeded, marked state is round 0.
			s.mirror = rel.Clone()
			base, err := s.journalBase()
			if err == nil {
				err = s.jnl.Begin(base)
			}
			if err != nil {
				s.Close()
				return nil, err
			}
		}
	}
	// Publish the seeded (or resumed) state as the first read epoch.
	s.publishRead(true)
	if res != nil && res.pending != nil {
		// The previous driver died inside this round: re-drive it now.
		// Failure keeps it quarantined without failing Open — reads
		// serve the pre-round epoch and Journal().InDoubt reports it.
		s.redriveOnOpen(res.pending)
	}
	return s, nil
}

// closeOnOpenErr tears down the partially built session on an Open
// error path (journal handle, and the cluster with its transport if
// already built).
func (s *Session) closeOnOpenErr() {
	if s.cluster != nil {
		s.cluster.Close()
		s.cluster, s.tcp = nil, nil
	}
	if s.jnl != nil {
		s.jnl.Close()
		s.jnl = nil
	}
}

// newSessionID draws the random identity a TCP-sites session presents
// to its daemons; fixed-size so handshake frames have deterministic
// length.
func newSessionID() ([8]byte, error) {
	var sid [8]byte
	if _, err := rand.Read(sid[:]); err != nil {
		return sid, fmt.Errorf("session: session id: %w", err)
	}
	return sid, nil
}

// reachSites builds the cluster the driver calls its sites on, one site
// per hello. Without WithTCPSites each hello is hosted on the cluster
// itself by sitehost.HostSite, the constructor a daemon bootstraps with,
// and calls dispatch in process. With it, a real-socket transport built
// from the config's TCP knobs sends each hello to its address and
// carries every call, and on a resume it is fast-forwarded to the
// journal's watermarks; checkpointed sessions turn on the driver-side
// replay log that rejoins recovering daemons.
func (s *Session) reachSites(hellos [][]byte, res *resumeState) error {
	s.cluster = network.NewCluster(len(hellos))
	if len(s.cfg.tcpAddrs) == 0 {
		for _, b := range hellos {
			h, err := sitehost.DecodeHello(b)
			if err == nil {
				_, err = sitehost.HostSite(s.cluster, h)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	if len(s.cfg.tcpAddrs) != len(hellos) {
		return fmt.Errorf("session: WithTCPSites: %d addresses for %d sites", len(s.cfg.tcpAddrs), len(hellos))
	}
	var err error
	s.tcp, err = network.NewTCPTransport(s.cfg.tcpAddrs, network.TCPConfig{
		Hellos:    hellos,
		Dial:      netwire.DialConfig{Budget: s.cfg.tcpRetry, Dialer: s.cfg.tcpDialer},
		TLS:       s.cfg.tcpTLS,
		ReplayLog: s.cfg.ckptDir != "",
	})
	if err != nil {
		return err
	}
	s.cluster.UseRemoteTransport(s.tcp)
	if res == nil {
		return nil
	}
	return s.tcp.Resume(res.seqs)
}

// markSites tells every checkpointing daemon that the state just reached
// is durable-worthy: each appends a mark to its delta log (every few
// marks also rotating the log, its snapshot written behind the reply),
// and the driver prunes its replay log up to this point. The marks go
// out concurrently, at most WithMaxFanout at a time; every site gets
// exactly one per round, under its own sequence number, whatever a
// sibling answers, and the lowest failing site's error is returned. A
// no-op without WithCheckpointDir. Marks ride outside the network.Call
// path, so the protocol meters never see them.
func (s *Session) markSites() error {
	if s.tcp == nil || s.cfg.ckptDir == "" {
		return nil
	}
	return network.Fanout(s.cluster, len(s.cfg.tcpAddrs), s, func(s *Session, _ *network.Lane, i int) error {
		if _, err := s.tcp.Invoke(network.SiteID(i), "chk.mark", nil); err != nil {
			return fmt.Errorf("session: checkpoint mark site %d: %w", i, err)
		}
		return nil
	})
}

// ReplayedCalls reports how many logged calls the transport replayed to
// recovering daemons so far (always 0 without WithCheckpointDir).
func (s *Session) ReplayedCalls() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tcp == nil {
		return 0
	}
	return s.tcp.ReplayedCalls()
}

// SiteCalls reports, per site, the last call sequence number the TCP
// transport issued — the deterministic "calls so far" meter the recovery
// benchmarks report. Nil for sessions without WithTCPSites.
func (s *Session) SiteCalls() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tcp == nil {
		return nil
	}
	return s.tcp.SiteCalls()
}

// Kind returns the partition style behind the session.
func (s *Session) Kind() Kind { return s.cfg.kind }

// Rules returns the rule set currently in force.
func (s *Session) Rules() []cfd.CFD {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]cfd.CFD(nil), s.eng.Rules()...)
}

// Violations returns the maintained violation set V(Σ, D): the writer's
// live set, which changes with every later batch. Read it only while no
// writer runs, or Clone it; a concurrent reader takes a Snapshot (or
// calls Query, Count or Measures), which reads a published epoch.
func (s *Session) Violations() *cfd.Violations {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Violations()
}

// Stats returns the cumulative communication meters (identically zero
// for a centralized session).
func (s *Session) Stats() network.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

// statsLocked reads the cluster's meters; callers hold s.mu.
func (s *Session) statsLocked() network.Stats {
	if s.cluster == nil {
		return network.Stats{}
	}
	return s.cluster.Stats()
}

// Rows returns |D|: the number of tuples currently in the maintained
// relation.
func (s *Session) Rows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}

// Cluster exposes the message fabric of a distributed session (nil for
// centralized ones).
func (s *Session) Cluster() *network.Cluster { return s.cluster }

// Plan returns the §5 HEV plan of a vertical session, nil otherwise.
func (s *Session) Plan() *optimizer.Plan { return s.plan }

// ApplyBatch applies one batch update ∆D through the engine's
// incremental algorithm, maintaining V(Σ, D) and returning ∆V. The
// context is honored between protocol steps: a cancelled ctx fails the
// call before any work. A batch is not checked against D up front: one
// that is inapplicable (say, deleting a tuple D does not hold) fails
// with V as the last published epoch holds it but its earlier updates
// already applied to the engine's data, so after such an error the
// session should be rebuilt.
func (s *Session) ApplyBatch(ctx context.Context, updates relation.UpdateList) (*cfd.Delta, error) {
	return s.write(ctx, "ApplyBatch", pendingOp{op: journal.OpBatch, updates: updates.Normalize()})
}

// AddRules brings new rules into force without rebuilding the system:
// only the new rules' per-site state and violation marks are seeded,
// through seed-delta rounds metered like any other round. Returns the
// seeded ∆V (exactly the new rules' marks). A rule set that would not
// validate — a rule over an unknown attribute, an id already in force or
// listed twice — is refused before anything is journaled or sent. Like
// ApplyBatch, the distributed rounds are not atomic: on a transport
// error the session should be rebuilt.
func (s *Session) AddRules(rules ...cfd.CFD) (*cfd.Delta, error) {
	return s.write(context.Background(), "AddRules", pendingOp{op: journal.OpAddRules, rules: append([]cfd.CFD(nil), rules...)})
}

// RemoveRules retires rules by id, dropping their per-site state and
// their marks from V. Returns the retired ∆V. An id not in force
// (xerr.ErrUnknownRule) or listed twice (xerr.ErrDuplicateRule) is
// refused before anything is journaled or sent.
func (s *Session) RemoveRules(ids ...string) (*cfd.Delta, error) {
	return s.write(context.Background(), "RemoveRules", pendingOp{op: journal.OpRemoveRules, ruleIDs: append([]string(nil), ids...)})
}

// write runs one write round under the writer locks; a cancelled ctx
// fails it before any work.
func (s *Session) write(ctx context.Context, name string, p pendingOp) (*cfd.Delta, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("session: %s: %w", name, xerr.ErrClosed)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.writeLocked(p)
}

// writeLocked is every write round's one path: settle a round left in
// doubt, admit the new one, then run it — through the journal's
// intent/applied machinery on a journaled session (recover.go) — and
// commit it. Callers hold wmu and mu.
func (s *Session) writeLocked(p pendingOp) (*cfd.Delta, error) {
	if s.pending != nil {
		// A previous round is in doubt: nothing new dispatches until it
		// settles (the cluster may hold a partial application of it).
		if err := s.settlePendingLocked(); err != nil {
			return nil, err
		}
	}
	if err := admit(s.schema, s.eng.Rules(), p.op, p.rules, p.ruleIDs); err != nil {
		return nil, err
	}
	if s.jnl != nil {
		jp := p // the journal keeps a round in doubt; the plain path's p stays on the stack
		return s.journaledRound(&jp)
	}
	delta, err := s.runOp(&p)
	if err == nil {
		err = s.markSites()
	}
	if err == nil {
		err = s.commitLocked(p.op, p.updates, delta)
	}
	if err != nil {
		return nil, err
	}
	return delta, nil
}

// admit is the admission check of a write round, run before the journal
// or any site sees it, so a refused round changes nothing. A rule change
// must leave a valid rule set: the rules to add validate against the
// schema beside those in force (cfd.ValidateAll), and the ids to remove
// name rules in force, each once. Batches pass; an inapplicable one
// fails in the engine.
func admit(schema *relation.Schema, inForce []cfd.CFD, op journal.OpKind, add []cfd.CFD, drop []string) error {
	switch op {
	case journal.OpAddRules:
		return cfd.ValidateAll(schema, append(slices.Clip(inForce), add...))
	case journal.OpRemoveRules:
		for i, id := range drop {
			if slices.Contains(drop[:i], id) {
				return fmt.Errorf("session: rule %q listed twice: %w", id, xerr.ErrDuplicateRule)
			}
			if !slices.ContainsFunc(inForce, func(r cfd.CFD) bool { return r.ID == id }) {
				return fmt.Errorf("session: removing rule %q: %w", id, xerr.ErrUnknownRule)
			}
		}
	}
	return nil
}

// runOp runs one admitted round's engine protocol. A round that fails
// leaves V as the last published epoch holds it: the engines mark V as
// they go, and the writer rolls back whatever a refused round marked.
func (s *Session) runOp(p *pendingOp) (delta *cfd.Delta, err error) {
	switch p.op {
	case journal.OpBatch:
		delta, err = s.eng.Apply(p.updates)
	case journal.OpAddRules:
		delta, err = s.eng.AddRules(p.rules)
	case journal.OpRemoveRules:
		delta, err = s.eng.RemoveRules(p.ruleIDs)
	default:
		err = fmt.Errorf("session: round %d has unknown op %v", p.round, p.op)
	}
	if err != nil {
		s.eng.Violations().Rollback()
	}
	return delta, err
}

// commitLocked is the tail every applied round shares: a batch moves the
// row count and, on a journaled session, the mirror; then the round's
// epoch is published. Callers hold s.mu.
func (s *Session) commitLocked(op journal.OpKind, updates relation.UpdateList, delta *cfd.Delta) error {
	event := EventBatch
	switch op {
	case journal.OpBatch:
		for _, u := range updates {
			if u.Kind == relation.Insert {
				s.rows++
			} else {
				s.rows--
			}
		}
		if s.mirror != nil {
			if err := updates.Apply(s.mirror); err != nil {
				return fmt.Errorf("session: journal mirror diverged: %w", err)
			}
		}
	case journal.OpAddRules:
		event = EventRulesAdded
	case journal.OpRemoveRules:
		event = EventRulesRemoved
	}
	s.publish(event, delta, s.publishRead(op != journal.OpBatch))
	return nil
}

// BatchDetect recomputes the violations from scratch with the engine's
// batch baseline (batVer/batHor; a fresh centralized detection for
// centralized sessions) without touching the maintained set.
func (s *Session) BatchDetect() (*cfd.Violations, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("session: BatchDetect: %w", xerr.ErrClosed)
	}
	return s.eng.BatchDetect()
}

// Close tears the session down: site connections, the journal, the
// stores and watch channels. Close waits for an in-flight Run to finish
// (cancel its context to stop it early). After Close every mutating operation
// (ApplyBatch, AddRules, RemoveRules, BatchDetect, Run) fails with
// ErrClosed; read accessors (Violations, Query, Count, Measures, Stats,
// Snapshot) keep serving the final state. Close is idempotent.
func (s *Session) Close() error {
	// Flag first, outside the locks: an in-doubt backoff loop holding
	// wmu checks this between attempts and yields promptly.
	s.closing.Store(true)
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for id, w := range s.watchers {
		close(w.ch)
		delete(s.watchers, id)
	}
	var err error
	if s.cluster != nil {
		// Stops the fan-out helpers, and closes the TCP transport when
		// the sites are daemons.
		err = s.cluster.Close()
	}
	s.tcp = nil
	if s.jnl != nil {
		if jerr := s.jnl.Close(); err == nil {
			err = jerr
		}
		s.jnl = nil
	}
	if s.stores != nil {
		// Close flushes each store's dirty pages; every applied round
		// already flushed, so this is normally a cheap no-op.
		if serr := s.stores.Close(); err == nil {
			err = serr
		}
		s.stores = nil
	}
	return err
}
