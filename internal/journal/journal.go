// Package journal is the driver-side write-ahead log that makes a
// TCP-sites session crash-safe: typed records over a seglog.Log, which
// owns the files, the compactor and the recovery rule (see
// internal/seglog and DESIGN.md §11). Where internal/checkpoint persists
// each *site's* state, the journal persists the *driver's* — the session
// identity, the folded rule set and plan, a mirror of the maintained
// relation, the per-site call watermarks, and every write round's
// intent, logged durably before the first wire call of the round goes
// out and marked applied (with the ∆V fingerprint) only after the
// round's checkpoint marks are acknowledged.
//
// Recovery leans on the same determinism as the rest of the repo: a
// driver rebuilt from the base record plus the applied intents, in
// order, reaches bit-identical dispatch state, so re-driving a dangling
// intent re-issues the same calls under the same sequence numbers and
// the daemons' dedupe windows make the resume exactly-once.
//
// A snapshot is one record, the positional encoding (internal/wire) of a
// Base; a segment record is a one-byte tag and the encoding of an Intent
// or an Applied. On top of seglog's chain this package checks the ledger
// grammar (fold): after the Base, Intent and Applied alternate with
// consecutive round numbers, across segment boundaries, and at most the
// final Intent dangles — the round the driver died inside. A chain that
// loads but breaks the grammar is xerr.ErrJournalCorrupt, with no
// fallback: the caller resets and starts a fresh session.
package journal

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/seglog"
	"repro/internal/wire"
	"repro/internal/xerr"
)

// FormatVersion is the on-disk journal format version (1 was one
// journal-<epoch>.wal file per epoch holding gob records).
const FormatVersion = 2

var format = seglog.Format{
	Magic:   [4]byte{'R', 'J', 'R', 'N'},
	Version: FormatVersion,
	Name:    "journal",
	Corrupt: xerr.ErrJournalCorrupt,
}

// Segment record tags.
const (
	tagIntent  byte = 'I'
	tagApplied byte = 'A'
)

// OpKind distinguishes the journaled write operations.
type OpKind uint8

const (
	// OpBatch is an ApplyBatch round (Updates carries the normalized ∆D).
	OpBatch OpKind = 1
	// OpAddRules is an AddRules round (Rules carries the new rules).
	OpAddRules OpKind = 2
	// OpRemoveRules is a RemoveRules round (RuleIDs carries the ids).
	OpRemoveRules OpKind = 3
)

func (k OpKind) String() string {
	if names := [...]string{OpBatch: "batch", OpAddRules: "add-rules", OpRemoveRules: "remove-rules"}; k > 0 && int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Base is the snapshot of a journal epoch: the full driver state at
// round Round. Folding the applied intents after it reconstructs the
// driver exactly.
type Base struct {
	// SessionID is the 8-byte identity the driver presents to its
	// daemons; a resumed driver reuses it so reconnect handshakes are
	// accepted.
	SessionID []byte
	// Kind is the partition style ("horizontal" or "vertical").
	Kind string
	// Sites is the cluster size.
	Sites int
	// SchemaName and SchemaAttrs pin the relation schema, so a resume
	// against a different relation fails loudly instead of diverging.
	SchemaName  string
	SchemaAttrs []string
	// Round is the number of applied write rounds folded into this base.
	Round uint64
	// Seqs holds the per-site call watermarks (transport sequence
	// numbers) at this base — the journal's durability frontier.
	Seqs []uint64
	// Cursor is the cross-batch protocol cursor (the horizontal wave
	// counter; zero for vertical).
	Cursor uint64
	// Rules is the rule set in force.
	Rules []cfd.CFD
	// Plan is the encoded §5 HEV plan (vertical only; nil otherwise).
	Plan []byte
	// Tuples is the full mirror of the maintained relation.
	Tuples []relation.Tuple
}

// Intent records one write round before its first wire call: enough to
// re-drive the round deterministically from the pre-round state.
type Intent struct {
	// Round is the 1-based round number this intent opens (previous
	// applied round + 1).
	Round uint64
	// Op says which of the payload fields below is meaningful.
	Op OpKind
	// Updates is the normalized ∆D of an OpBatch round.
	Updates relation.UpdateList
	// Rules carries OpAddRules' new rules.
	Rules []cfd.CFD
	// RuleIDs carries OpRemoveRules' retired ids.
	RuleIDs []string
	// Seqs are the pre-round per-site watermarks — the rewind point a
	// re-drive resets the transport to.
	Seqs []uint64
	// Cursor is the pre-round protocol cursor.
	Cursor uint64
}

// Applied closes an intent: the round's marks were acknowledged by
// every site, so the round can never need re-driving.
type Applied struct {
	// Round matches the intent it closes.
	Round uint64
	// Fingerprint is the canonical digest of the round's ∆V, the diff
	// of V before and after it (cfd.Delta.Fingerprint).
	Fingerprint uint64
	// Seqs are the post-round (post-mark) per-site watermarks.
	Seqs []uint64
	// Cursor is the post-round protocol cursor.
	Cursor uint64
}

// State is a recovered journal: the base plus the intent ledger.
// len(Applied) is len(Intents) or len(Intents)-1 — at most the last
// intent dangles.
type State struct {
	Base    *Base
	Intents []Intent
	Applied []Applied
}

// Pending returns the dangling intent — the round the previous driver
// died inside — or nil after a clean-boundary crash.
func (st *State) Pending() *Intent {
	if len(st.Intents) > len(st.Applied) {
		return &st.Intents[len(st.Intents)-1]
	}
	return nil
}

// Rounds returns the number of applied rounds the journal records.
func (st *State) Rounds() uint64 {
	if n := len(st.Applied); n > 0 {
		return st.Applied[n-1].Round
	}
	return st.Base.Round
}

// Store is one driver's journal directory: the seglog.Log (Epoch, Wait,
// Abandon and Close are its own) speaking Base, Intent and Applied.
type Store struct {
	*seglog.Log
	// v1 matches what a format-version-1 driver left in the directory.
	v1 string
	// buf is Intent's and Applied's reused encode buffer.
	buf []byte
}

// Open prepares dir as a journal directory (seglog.Open).
func Open(dir string) (*Store, error) {
	log, err := seglog.Open(dir, format)
	if err != nil {
		return nil, err
	}
	return &Store{Log: log, v1: filepath.Join(dir, "journal-*.wal")}, nil
}

// Recover loads the journal by seglog's rule and folds it into a State,
// leaving the last segment open for append. (nil, nil) means an empty
// directory — a fresh deployment. Damage to the chain, a directory
// written by format version 1, or a broken ledger grammar returns an
// error wrapping xerr.ErrJournalCorrupt; the store stays usable.
func (s *Store) Recover() (*State, error) {
	epoch, snap, recs, err := s.Log.Recover()
	if err != nil {
		return nil, err
	}
	if epoch == 0 {
		if old, _ := filepath.Glob(s.v1); len(old) > 0 {
			return nil, format.Corruptf("%s: format version 1, want %d", old[0], FormatVersion)
		}
		return nil, nil
	}
	if len(snap) != 1 {
		return nil, format.Corruptf("snapshot %d holds %d records, want one base", epoch, len(snap))
	}
	st := &State{Base: new(Base)}
	if err := wire.Unmarshal(snap[0], st.Base); err != nil {
		return nil, format.Corruptf("snapshot %d: decode base: %v", epoch, err)
	}
	for _, payload := range recs {
		if err := st.fold(payload); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Begin starts the journal's first epoch from base and returns once the
// base is on disk. Only valid on a fresh or Reset directory.
func (s *Store) Begin(base *Base) error {
	if s.Epoch() != 0 {
		return fmt.Errorf("journal: Begin on a non-empty journal (epoch %d)", s.Epoch())
	}
	if err := s.Compact(base); err != nil {
		return err
	}
	return s.Wait()
}

// Compact folds the journal into a fresh epoch whose Base is the current
// driver state (seglog's Compact: the rotation is all the caller waits
// for). base is captured as bytes before Compact returns.
func (s *Store) Compact(base *Base) error {
	payload, err := wire.Marshal(base)
	if err != nil {
		return fmt.Errorf("journal: encode base: %w", err)
	}
	return s.Log.Compact(func() ([][]byte, error) { return [][]byte{payload}, nil })
}

// Intent appends and flushes one intent record — returns only once the
// record is durable against process death, so the round's first wire
// call never races its own recoverability. Like Applied it does not
// check the round against the ledger; Recover does.
func (s *Store) Intent(it *Intent) error { return s.append(tagIntent, it) }

// Applied appends and flushes one applied record, closing the round.
func (s *Store) Applied(ap *Applied) error { return s.append(tagApplied, ap) }

func (s *Store) append(tag byte, rec any) error {
	var err error
	if s.buf, err = wire.Append(append(s.buf[:0], tag), rec); err != nil {
		return fmt.Errorf("journal: encode record: %w", err)
	}
	if err := s.Log.Append(s.buf); err != nil {
		return err
	}
	// Also reports a compaction that failed since the last record.
	return s.Flush()
}

// Reset discards every journal file, of this format or version 1's, and
// returns the store to epoch 0 — the start-empty-on-corrupt path.
func (s *Store) Reset() error {
	old, _ := filepath.Glob(s.v1)
	for _, path := range old {
		os.Remove(path)
	}
	return s.Log.Reset()
}

// fold validates one segment record against the ledger grammar and
// appends it to the state.
func (st *State) fold(payload []byte) error {
	if len(payload) == 0 {
		return format.Corruptf("empty record")
	}
	switch tag, body := payload[0], payload[1:]; tag {
	case tagIntent:
		var it Intent
		if err := wire.Unmarshal(body, &it); err != nil {
			return format.Corruptf("decode intent: %v", err)
		}
		if open := st.Pending(); open != nil {
			return format.Corruptf("intent for round %d while round %d is still open", it.Round, open.Round)
		}
		if want := st.Rounds() + 1; it.Round != want {
			return format.Corruptf("intent round %d, want %d", it.Round, want)
		}
		st.Intents = append(st.Intents, it)
	case tagApplied:
		var ap Applied
		if err := wire.Unmarshal(body, &ap); err != nil {
			return format.Corruptf("decode applied: %v", err)
		}
		if open := st.Pending(); open == nil {
			return format.Corruptf("applied round %d without an open intent", ap.Round)
		} else if ap.Round != open.Round {
			return format.Corruptf("applied round %d closes intent round %d", ap.Round, open.Round)
		}
		st.Applied = append(st.Applied, ap)
	default:
		return format.Corruptf("unknown record tag %q", tag)
	}
	return nil
}
