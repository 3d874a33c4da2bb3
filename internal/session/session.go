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
//   - subscriptions: Watch streams every applied batch's ∆V;
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
	AddRules([]cfd.CFD) (*cfd.Delta, error)
	// RemoveRules retires rules by id; returns the retired ∆V.
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

	s := &Session{cfg: cfg, rows: rel.Len(), watchers: make(map[int]*Subscription)}

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
		switch {
		case err != nil && errors.Is(err, xerr.ErrJournalCorrupt):
			if rerr := jnl.Reset(); rerr != nil {
				jnl.Close()
				return nil, rerr
			}
			s.jCorrupt = true
		case err != nil:
			jnl.Close()
			return nil, err
		case st != nil:
			if res, err = foldJournal(st, rel, cfg); err != nil {
				jnl.Close()
				return nil, err
			}
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
			budget := int64(defaultCacheBudget)
			if cfg.budgetSet {
				budget = cfg.cacheBudget
			}
			st, err := openStorage(cfg.storageDir, budget)
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
		hOpts := horizontal.Options{
			DisableMD5: cfg.disableMD5,
			NoIndexes:  cfg.noIndexes,
			SkipSeed:   res != nil,
		}
		if len(cfg.tcpAddrs) > 0 {
			hellos, err := sitehost.HorizontalHellos(s.sid, buildRel.Schema, buildRules, cfg.hScheme.NumSites(), cfg.checkpointing())
			if err == nil {
				err = s.dialSites(hellos, res)
			}
			if err != nil {
				s.closeOnOpenErr()
				return nil, err
			}
			hOpts.Transport = s.tcp
		}
		sys, err := horizontal.NewSystem(buildRel, cfg.hScheme, buildRules, hOpts)
		if err != nil {
			s.closeOnOpenErr()
			return nil, err
		}
		s.eng, s.cluster = sys, sys.Cluster()
	case Vertical:
		vOpts := vertical.Options{
			UseOptimizer: cfg.useOptimizer,
			NoIndexes:    cfg.noIndexes,
			SkipSeed:     res != nil,
		}
		if len(cfg.tcpAddrs) > 0 {
			// The daemons must run the exact plan the driver runs, so
			// plan here (or take the journal's folded plan) and pin it
			// on both sides.
			vOpts.Plan = res.planOrNil()
			var err error
			if vOpts.Plan == nil {
				vOpts.Plan, err = vertical.PlanFor(buildRules, cfg.vScheme, vOpts)
			}
			var hellos [][]byte
			if err == nil {
				hellos, err = sitehost.VerticalHellos(s.sid, buildRel.Schema, cfg.vScheme, vOpts.Plan, buildRules, cfg.checkpointing())
			}
			if err == nil {
				err = s.dialSites(hellos, res)
			}
			if err != nil {
				s.closeOnOpenErr()
				return nil, err
			}
			vOpts.Transport = s.tcp
		}
		sys, err := vertical.NewSystem(buildRel, cfg.vScheme, buildRules, vOpts)
		if err != nil {
			s.closeOnOpenErr()
			return nil, err
		}
		s.eng, s.cluster, s.plan = sys, sys.Cluster(), sys.Plan()
	}
	if s.cluster != nil {
		if cfg.maxFanout >= 0 {
			s.cluster.SetMaxFanout(cfg.maxFanout)
		}
		if cfg.linkRTT > 0 {
			s.cluster.SetLinkRTT(cfg.linkRTT)
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
// error path (journal handle, transport if already dialed).
func (s *Session) closeOnOpenErr() {
	if s.tcp != nil {
		s.tcp.Close()
		s.tcp = nil
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

// dialSites builds the real-socket transport from the config's TCP
// knobs and the kind's per-site bootstrap hellos, one per address, and
// on a resume fast-forwards it to the journal's watermarks. Checkpointed
// sessions turn on the driver-side replay log that rejoins recovering
// daemons.
func (s *Session) dialSites(hellos [][]byte, res *resumeState) error {
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
	if err != nil || res == nil {
		return err
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
// no-op without WithCheckpointDir. Marks ride outside the Cluster.Call
// path, so the protocol meters never see them.
func (s *Session) markSites() error {
	if s.tcp == nil || s.cfg.ckptDir == "" {
		return nil
	}
	return s.cluster.Fanout(len(s.cfg.tcpAddrs), network.FanoutOpts{}, func(i int) error {
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

// Violations returns the maintained violation set V(Σ, D). The returned
// set is live — it changes with subsequent batches; Clone or Snapshot it
// for a stable view.
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
// call before any work.
func (s *Session) ApplyBatch(ctx context.Context, updates relation.UpdateList) (*cfd.Delta, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("session: ApplyBatch: %w", xerr.ErrClosed)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.applyLocked(updates)
}

// applyLocked is the shared batch path of ApplyBatch and Run:
// normalize, apply, account rows, publish. Callers hold s.mu.
// Journaled sessions route through the intent/applied machinery in
// recover.go instead (which ends in the same accounting and publish).
func (s *Session) applyLocked(updates relation.UpdateList) (*cfd.Delta, error) {
	norm := updates.Normalize()
	if s.jnl != nil {
		return s.journaledRound(
			&pendingOp{op: journal.OpBatch, updates: norm},
			func() (*cfd.Delta, error) { return s.eng.Apply(norm) })
	}
	delta, err := s.eng.Apply(norm)
	if err != nil {
		return nil, err
	}
	for _, u := range norm {
		if u.Kind == relation.Insert {
			s.rows++
		} else {
			s.rows--
		}
	}
	if err := s.markSites(); err != nil {
		return nil, err
	}
	s.publish(EventBatch, delta, s.publishRead(false))
	return delta, nil
}

// AddRules brings new rules into force without rebuilding the system:
// only the new rules' per-site state and violation marks are seeded,
// through seed-delta rounds metered like any other round. Returns the
// seeded ∆V (exactly the new rules' marks). Like ApplyBatch, the
// distributed rounds are not atomic: on a transport error the session
// should be rebuilt.
func (s *Session) AddRules(rules ...cfd.CFD) (*cfd.Delta, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("session: AddRules: %w", xerr.ErrClosed)
	}
	if s.jnl != nil {
		return s.journaledRound(
			&pendingOp{op: journal.OpAddRules, rules: append([]cfd.CFD(nil), rules...)},
			func() (*cfd.Delta, error) { return s.eng.AddRules(rules) })
	}
	delta, err := s.eng.AddRules(rules)
	if err != nil {
		return nil, err
	}
	if err := s.markSites(); err != nil {
		return nil, err
	}
	s.publish(EventRulesAdded, delta, s.publishRead(true))
	return delta, nil
}

// RemoveRules retires rules by id, dropping their per-site state and
// their marks from V. Returns the retired ∆V.
func (s *Session) RemoveRules(ids ...string) (*cfd.Delta, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("session: RemoveRules: %w", xerr.ErrClosed)
	}
	if s.jnl != nil {
		return s.journaledRound(
			&pendingOp{op: journal.OpRemoveRules, ruleIDs: append([]string(nil), ids...)},
			func() (*cfd.Delta, error) { return s.eng.RemoveRules(ids) })
	}
	delta, err := s.eng.RemoveRules(ids)
	if err != nil {
		return nil, err
	}
	if err := s.markSites(); err != nil {
		return nil, err
	}
	s.publish(EventRulesRemoved, delta, s.publishRead(true))
	return delta, nil
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
	if s.tcp != nil {
		err = s.tcp.Close()
		s.tcp = nil
	}
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
