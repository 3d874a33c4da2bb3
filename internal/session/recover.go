// Driver crash safety: the write-ahead journal hooks and the in-doubt
// round machinery behind WithJournalDir.
//
// Every write round on a journaled session runs in two phases. The
// round phase logs an intent (durably, before the first wire call),
// then drives the engine's protocol rounds; the marks phase pushes the
// batch's checkpoint marks to every daemon and closes the intent with
// an Applied record carrying the ∆V fingerprint. A site failure in
// either phase quarantines the round as *in doubt*: the session keeps
// serving reads from the last published epoch, re-drives the round
// under its original sequence numbers within the retry budget (the
// daemons' dedupe windows make the re-drive exactly-once), and past
// the budget surfaces an error wrapping both xerr.ErrBatchInDoubt and
// the underlying xerr.ErrSiteDown. A driver that dies instead of
// erroring recovers the same way on the next Open: the journal is
// folded back into driver state and the dangling intent re-driven.
package session

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/journal"
	"repro/internal/network"
	"repro/internal/optimizer"
	"repro/internal/relation"
	"repro/internal/seglog"
	"repro/internal/vertical"
	"repro/internal/wire"
	"repro/internal/xerr"
)

// protocolCursorEngine is the seam for engines whose protocol carries
// cross-batch state (the horizontal wave counter): the journal records
// the cursor per round so a resumed driver's future envelopes stay
// bit-identical.
type protocolCursorEngine interface {
	ProtocolCursor() uint64
	SetProtocolCursor(uint64)
}

// adoptEngine is the resume seam: install an externally derived
// violation set on a SkipSeed-built engine.
type adoptEngine interface {
	AdoptViolations(*cfd.Violations)
}

// JournalStats reports the crash-safety state of a journaled session.
type JournalStats struct {
	// Enabled says the session was opened with WithJournalDir.
	Enabled bool
	// Resumed says Open recovered driver state from a journal instead
	// of seeding fresh.
	Resumed bool
	// StartedCorrupt says Open found a corrupt journal, reset it and
	// started a fresh session (new identity, full reseed).
	StartedCorrupt bool
	// Rounds is the number of write rounds applied (and journaled).
	Rounds uint64
	// Redriven counts rounds that needed a re-drive to settle — zero on
	// a clean-boundary resume.
	Redriven int
	// InDoubt says a quarantined round is pending: writes fail with
	// ErrBatchInDoubt until it settles (or the session is reopened).
	InDoubt bool
}

// Journal returns the session's crash-safety stats (zero-valued
// without WithJournalDir).
func (s *Session) Journal() JournalStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return JournalStats{
		Enabled:        s.cfg.journalDir != "",
		Resumed:        s.jResumed,
		StartedCorrupt: s.jCorrupt,
		Rounds:         s.jround,
		Redriven:       s.redriven,
		InDoubt:        s.pending != nil,
	}
}

// Abandon is process death for a session that lives inside a test or a
// recovery sweep and is dropped, never Closed: the journal's compactor
// goes no further than step and is waited for, so a successor may open
// the same journal directory (see seglog.Log.Abandon). Nothing else is
// released, as a kill releases nothing; the session must not write again.
func (s *Session) Abandon(step seglog.Step) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jnl != nil {
		s.jnl.Abandon(step)
	}
}

// pendingOp is one write round in flight (or in doubt). delta == nil
// means the engine round itself has not committed (round phase); a
// non-nil delta means only the checkpoint marks are outstanding (marks
// phase). cause is the error that quarantined it, nil for a pending
// round recovered fresh from the journal.
type pendingOp struct {
	op      journal.OpKind
	updates relation.UpdateList
	rules   []cfd.CFD
	ruleIDs []string

	round      uint64
	baseSeqs   []uint64 // pre-round watermarks: the round-phase rewind point
	baseCursor uint64

	delta    *cfd.Delta
	postSeqs []uint64 // post-round watermarks: the marks-phase rewind point

	// redrivable: OpBatch rounds re-drive in process (the mirror
	// restores V); rule rounds that failed mid-round in *this* process
	// do not — the driver's plan already mutated, so re-calling the
	// engine would double-graft. They settle on the next Open, where
	// the folded state is pristine.
	redrivable bool
	cause      error
}

// quarantine reports whether a write failure leaves the cluster
// possibly partially applied — a transport-level site loss on a
// journaled session. Anything else (validation, journal IO) failed
// before or beside the wire and surfaces as-is.
func (s *Session) quarantine(err error) bool {
	return s.jnl != nil && s.tcp != nil && errors.Is(err, xerr.ErrSiteDown)
}

// cursor returns the engine's cross-batch protocol cursor (0 for
// engines without one).
func (s *Session) cursor() uint64 {
	if ce, ok := s.eng.(protocolCursorEngine); ok {
		return ce.ProtocolCursor()
	}
	return 0
}

// journalBase captures the full current driver state as a journal Base
// record. Callers hold s.mu.
func (s *Session) journalBase() (*journal.Base, error) {
	b := &journal.Base{
		SessionID:   append([]byte(nil), s.sid[:]...),
		Kind:        s.cfg.kind.String(),
		Sites:       len(s.cfg.tcpAddrs),
		SchemaName:  s.mirror.Schema.Name,
		SchemaAttrs: append([]string(nil), s.mirror.Schema.Attrs...),
		Round:       s.jround,
		Seqs:        s.tcp.SiteCalls(),
		Cursor:      s.cursor(),
		Rules:       append([]cfd.CFD(nil), s.eng.Rules()...),
		Tuples:      s.mirror.Tuples(),
	}
	if s.plan != nil {
		var err error
		if b.Plan, err = wire.Marshal(s.plan); err != nil {
			return nil, fmt.Errorf("session: journal: encode plan: %w", err)
		}
	}
	return b, nil
}

// journaledRound is the write path of a journaled session: intent
// before dispatch, applied after marks, quarantine on site loss.
// Callers hold wmu and mu; run performs the engine round.
func (s *Session) journaledRound(p *pendingOp, run func() (*cfd.Delta, error)) (*cfd.Delta, error) {
	if s.pending != nil {
		// A previous round is in doubt: nothing new dispatches until it
		// settles (the cluster may hold a partial application of it).
		if err := s.settlePendingLocked(); err != nil {
			return nil, err
		}
	}
	intent := &journal.Intent{
		Round:   s.jround + 1,
		Op:      p.op,
		Updates: p.updates,
		Rules:   p.rules,
		RuleIDs: p.ruleIDs,
		Seqs:    s.tcp.SiteCalls(),
		Cursor:  s.cursor(),
	}
	if err := s.jnl.Intent(intent); err != nil {
		return nil, err
	}
	p.round, p.baseSeqs, p.baseCursor = intent.Round, intent.Seqs, intent.Cursor

	delta, err := run()
	if err == nil {
		p.delta, p.postSeqs = delta, s.tcp.SiteCalls()
		if err = s.markSites(); err == nil {
			if cerr := s.commitPendingLocked(p); cerr != nil {
				return nil, cerr
			}
			return delta, nil
		}
	}
	if !s.quarantine(err) {
		return nil, err
	}
	p.cause = err
	p.redrivable = p.delta != nil || p.op == journal.OpBatch
	s.pending = p
	if err := s.settlePendingLocked(); err != nil {
		return nil, err
	}
	return p.delta, nil
}

// settlePendingLocked re-drives the pending round until it commits,
// the retry budget runs out, or the session starts closing. On success
// the round is committed (journal Applied, rows, mirror, publish) and
// s.pending cleared; otherwise the round stays quarantined and the
// returned error wraps ErrBatchInDoubt (and the ErrSiteDown cause).
func (s *Session) settlePendingLocked() error {
	p := s.pending
	budget := s.cfg.inDoubtRetryBudget()
	start := time.Now()
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		if !p.redrivable {
			return s.inDoubtError(p)
		}
		if attempt > 0 || p.cause != nil {
			// This round already failed once in this process: back off
			// within the budget before burning another dial budget. A
			// pending round fresh from the journal (cause == nil) gets
			// its first attempt immediately.
			if s.closing.Load() || time.Since(start)+backoff > budget {
				return s.inDoubtError(p)
			}
			time.Sleep(backoff)
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
		}
		err := s.drivePendingLocked(p)
		if err == nil {
			s.pending = nil
			s.redriven++
			return s.commitPendingLocked(p)
		}
		if !s.quarantine(err) {
			return err
		}
		p.cause = err
	}
}

// drivePendingLocked makes one attempt to finish the pending round:
// rewind the transport to the phase's watermarks, re-issue the calls
// under their original sequence numbers (already-served calls answer
// from the daemons' dedupe windows), and push the marks.
func (s *Session) drivePendingLocked(p *pendingOp) error {
	if p.delta == nil {
		if err := s.tcp.Rewind(p.baseSeqs); err != nil {
			return err
		}
		if ce, ok := s.eng.(protocolCursorEngine); ok {
			ce.SetProtocolCursor(p.baseCursor)
		}
		if p.cause != nil {
			// The failed attempt may have partially applied ∆V to the
			// driver's live set; re-derive the pre-round V from the
			// journaled mirror so the re-drive starts clean.
			if ae, ok := s.eng.(adoptEngine); ok {
				ae.AdoptViolations(centralized.Detect(s.mirror, s.eng.Rules()))
			}
		}
		var (
			delta *cfd.Delta
			err   error
		)
		switch p.op {
		case journal.OpBatch:
			delta, err = s.eng.Apply(p.updates)
		case journal.OpAddRules:
			delta, err = s.eng.AddRules(p.rules)
		case journal.OpRemoveRules:
			delta, err = s.eng.RemoveRules(p.ruleIDs)
		default:
			return fmt.Errorf("session: pending round %d has unknown op %v", p.round, p.op)
		}
		if err != nil {
			if p.op != journal.OpBatch {
				// The driver's rule state may now be tainted mid-graft:
				// no further in-process attempts (see pendingOp).
				p.redrivable = false
			}
			return err
		}
		p.delta, p.postSeqs = delta, s.tcp.SiteCalls()
	} else if err := s.tcp.Rewind(p.postSeqs); err != nil {
		return err
	}
	return s.markSites()
}

// commitPendingLocked closes a successfully driven round: journal
// Applied (with the ∆V fingerprint), row accounting, mirror update,
// compaction, publish.
func (s *Session) commitPendingLocked(p *pendingOp) error {
	ap := &journal.Applied{
		Round:       p.round,
		Fingerprint: p.delta.Fingerprint(),
		Seqs:        s.tcp.SiteCalls(),
		Cursor:      s.cursor(),
	}
	if err := s.jnl.Applied(ap); err != nil {
		return err
	}
	s.jround = p.round
	event := EventBatch
	switch p.op {
	case journal.OpBatch:
		for _, u := range p.updates {
			if u.Kind == relation.Insert {
				s.rows++
			} else {
				s.rows--
			}
		}
		if err := p.updates.Apply(s.mirror); err != nil {
			return fmt.Errorf("session: journal mirror diverged: %w", err)
		}
	case journal.OpAddRules:
		event = EventRulesAdded
	case journal.OpRemoveRules:
		event = EventRulesRemoved
	}
	s.sinceCompact++
	if s.sinceCompact >= s.cfg.journalCompactEvery() {
		base, err := s.journalBase()
		if err != nil {
			return err
		}
		if err := s.jnl.Compact(base); err != nil {
			return err
		}
		s.sinceCompact = 0
	}
	s.publish(event, p.delta, s.publishRead(p.op != journal.OpBatch))
	return nil
}

// inDoubtError wraps the pending round's cause so callers classify it
// with errors.Is against both ErrBatchInDoubt and ErrSiteDown.
func (s *Session) inDoubtError(p *pendingOp) error {
	return fmt.Errorf("session: %s round %d: %w: %w", p.op, p.round, xerr.ErrBatchInDoubt, p.cause)
}

// resumeState is a journal folded back into driver state, ready to
// rebuild engines around.
type resumeState struct {
	sid     [8]byte
	mirror  *relation.Relation
	rules   []cfd.CFD
	plan    *optimizer.Plan // vertical only
	seqs    []uint64
	cursor  uint64
	round   uint64
	pending *journal.Intent
}

// planOrNil returns the folded plan, tolerating a nil resume (a fresh
// Open).
func (r *resumeState) planOrNil() *optimizer.Plan {
	if r == nil {
		return nil
	}
	return r.plan
}

// foldJournal replays a recovered journal into driver state: the base
// record's mirror, rules and plan, with every applied intent folded on
// top in order. Folding uses the same deterministic operations the
// live driver used (UpdateList.Apply, rule append/filter, plan
// graft/drop), so the folded driver is bit-identical to the one that
// crashed.
func foldJournal(st *journal.State, rel *relation.Relation, cfg config) (*resumeState, error) {
	b := st.Base
	if b.SchemaName != rel.Schema.Name || !slices.Equal(b.SchemaAttrs, rel.Schema.Attrs) {
		return nil, fmt.Errorf("session: resume: journal is for relation %s%v, not %s%v",
			b.SchemaName, b.SchemaAttrs, rel.Schema.Name, rel.Schema.Attrs)
	}
	if b.Kind != cfg.kind.String() {
		return nil, fmt.Errorf("session: resume: journal is for a %s session, not %s", b.Kind, cfg.kind)
	}
	if b.Sites != len(cfg.tcpAddrs) {
		return nil, fmt.Errorf("session: resume: journal spans %d sites, session has %d", b.Sites, len(cfg.tcpAddrs))
	}
	res := &resumeState{round: st.Rounds(), pending: st.Pending()}
	if len(b.SessionID) != len(res.sid) {
		return nil, fmt.Errorf("session: resume: journal session id is %d bytes, want %d", len(b.SessionID), len(res.sid))
	}
	copy(res.sid[:], b.SessionID)

	res.mirror = relation.New(rel.Schema)
	for _, t := range b.Tuples {
		if err := res.mirror.Insert(t); err != nil {
			return nil, fmt.Errorf("session: resume: journal base: %w", err)
		}
	}
	res.rules = append([]cfd.CFD(nil), b.Rules...)
	if cfg.kind == Vertical {
		if len(b.Plan) == 0 {
			return nil, fmt.Errorf("session: resume: vertical journal base has no plan")
		}
		res.plan = new(optimizer.Plan)
		err := wire.Unmarshal(b.Plan, res.plan)
		if err == nil {
			err = res.plan.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("session: resume: journal plan: %w", err)
		}
	}

	for i := range st.Applied {
		it := &st.Intents[i]
		switch it.Op {
		case journal.OpBatch:
			if err := it.Updates.Apply(res.mirror); err != nil {
				return nil, fmt.Errorf("session: resume: fold round %d: %w", it.Round, err)
			}
		case journal.OpAddRules:
			if res.plan != nil {
				if err := vertical.GraftRules(res.plan, cfg.vScheme, it.Rules); err != nil {
					return nil, fmt.Errorf("session: resume: fold round %d: %w", it.Round, err)
				}
			}
			res.rules = append(res.rules, it.Rules...)
		case journal.OpRemoveRules:
			drop := make(map[string]bool, len(it.RuleIDs))
			for _, id := range it.RuleIDs {
				drop[id] = true
				if res.plan != nil {
					res.plan.DropRule(id)
				}
			}
			kept := res.rules[:0]
			for _, r := range res.rules {
				if !drop[r.ID] {
					kept = append(kept, r)
				}
			}
			res.rules = kept
		default:
			return nil, fmt.Errorf("session: resume: fold round %d: unknown op %v", it.Round, it.Op)
		}
	}
	res.seqs, res.cursor = b.Seqs, b.Cursor
	if n := len(st.Applied); n > 0 {
		res.seqs, res.cursor = st.Applied[n-1].Seqs, st.Applied[n-1].Cursor
	}
	if len(res.seqs) != b.Sites {
		return nil, fmt.Errorf("session: resume: %d watermarks for %d sites", len(res.seqs), b.Sites)
	}
	return res, nil
}

// finishResume completes a journal resume after the engines are built:
// adopt the re-derived V, restore the protocol cursor, and verify by
// handshake that every daemon's durable state reaches the journal's
// watermark. No wire call here is metered or re-executed — a clean-
// boundary resume touches the cluster only with handshakes.
func (s *Session) finishResume(res *resumeState) error {
	if ae, ok := s.eng.(adoptEngine); ok {
		ae.AdoptViolations(centralized.Detect(res.mirror, res.rules))
	} else {
		return fmt.Errorf("session: resume: engine cannot adopt violations")
	}
	if ce, ok := s.eng.(protocolCursorEngine); ok {
		ce.SetProtocolCursor(res.cursor)
	}
	for i := range s.cfg.tcpAddrs {
		last, err := s.tcp.Probe(network.SiteID(i))
		if err != nil {
			return fmt.Errorf("session: resume: %w", err)
		}
		if last < res.seqs[i] {
			return fmt.Errorf("session: resume: site %d recovered to seq %d, behind the journal watermark %d: %w",
				i, last, res.seqs[i], xerr.ErrSiteDown)
		}
	}
	s.mirror, s.jround, s.rows = res.mirror, res.round, res.mirror.Len()
	s.jResumed = true
	return nil
}

// redriveOnOpen re-drives the round the previous driver died inside.
// Failure does not fail Open: the round stays quarantined (reads
// serve, stats report InDoubt) and settles on a later write or the
// next Open.
func (s *Session) redriveOnOpen(it *journal.Intent) {
	s.pending = &pendingOp{
		op:         it.Op,
		updates:    it.Updates,
		rules:      it.Rules,
		ruleIDs:    it.RuleIDs,
		round:      it.Round,
		baseSeqs:   it.Seqs,
		baseCursor: it.Cursor,
		redrivable: true,
	}
	_ = s.settlePendingLocked()
}
