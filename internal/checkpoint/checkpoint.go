// Package checkpoint is the durable state of a site daemon: typed
// records over a seglog.Log, which owns the files, the compactor and the
// recovery rule (see internal/seglog and DESIGN.md §11).
//
// What this package adds is what the records mean. A hosted site mutates
// its state only through the serialized call stream the driver sends it,
// and every handler is a deterministic function of (state, call). A
// checkpoint is therefore a Snapshot at some call sequence number S plus
// the raw (seq, method, payload) Records executed after S; replaying
// them through the ordinary dispatch path reconstructs the exact
// pre-crash state — including the at-most-once reply window — with cost
// proportional to the delta, not the database (the paper's boundedness
// result, carried through to recovery).
//
// A snapshot file holds two records: the positional encoding
// (internal/wire) of the Snapshot without its engine blob, then the blob
// as the engine wrote it. A segment record is the positional encoding of
// one Record. None of these bytes ride the metered protocol streams.
package checkpoint

import (
	"fmt"

	"repro/internal/seglog"
	"repro/internal/wire"
	"repro/internal/xerr"
)

// FormatVersion is the on-disk format version; a snapshot and its
// segments must agree on it. The delta log holds raw call payloads keyed
// by method name and recovery re-dispatches them, so the version also
// moves when a call payload is reshaped or a method is retired (3:
// v.batchResolve carries a stage's node groups; 4: snapshots and engine
// blobs leave gob for the positional codec, the log is cut into
// per-epoch segments; 5: the per-update methods are retired — no layout
// change, but an older log may hold calls nothing handles any more; 6:
// the vertical same-site calls carry id, index and bitset columns, and a
// vertical site's blob no longer stores what it derives from its rules;
// 7: the hello a snapshot carries is positional, not gob; 8: h.apply is
// retired — no layout change, but an older log may hold calls nothing
// handles any more).
const FormatVersion = 8

var format = seglog.Format{
	Magic:   [4]byte{'R', 'C', 'K', 'P'},
	Version: FormatVersion,
	Name:    "checkpoint",
	Corrupt: xerr.ErrCheckpointCorrupt,
}

// Record is one raw call applied after the current snapshot: exactly
// the (seq, method, payload) triple the driver sent. Replaying it
// through the daemon's dispatch path re-executes it deterministically.
type Record struct {
	Seq    uint64
	Method string
	Data   []byte
}

// Reply is one cached reply of the daemon's at-most-once window,
// persisted so a resend arriving after a crash-recovery is still served
// from cache instead of executing twice.
type Reply struct {
	Seq  uint64
	Data []byte
	Err  string
}

// Snapshot is the full durable state of a hosted site at sequence
// number LastSeq.
type Snapshot struct {
	// Epoch is the snapshot's monotonically increasing number, assigned
	// by Compact.
	Epoch uint64
	// Hello is the driver's original bootstrap payload: everything
	// needed to rebuild the site skeleton (schema, rules, plan, session
	// identity) before Engine state is loaded into it.
	Hello []byte
	// LastSeq is the highest call sequence number reflected in Engine.
	LastSeq uint64
	// Window is the reply cache at snapshot time.
	Window []Reply
	// Engine is the engine-specific state blob (horizontal or vertical
	// site snapshot): relation fragment, per-rule group/equivalence
	// state and mark flags. It is its own record in the file.
	Engine []byte
}

// Store is one site's checkpoint directory: the seglog.Log (Epoch, Flush,
// Compacting, Wait, Abandon, Reset and Close are its own) with Recover,
// Append and Compact speaking Snapshot and Record.
type Store struct {
	*seglog.Log
	// recBuf is Append's reused encode buffer.
	recBuf []byte
}

// Open prepares dir as a checkpoint directory (seglog.Open).
func Open(dir string) (*Store, error) {
	log, err := seglog.Open(dir, format)
	if err != nil {
		return nil, err
	}
	return &Store{Log: log}, nil
}

// Recover returns the newest checkpoint whose chain is complete — its
// snapshot plus the records of every segment after it, in order — by
// seglog's rule. (nil, nil, nil) means no checkpoint. A chain that loads
// but does not decode is xerr.ErrCheckpointCorrupt like any other damage:
// no partial state, the daemon starts empty and the driver reseeds.
func (s *Store) Recover() (*Snapshot, []Record, error) {
	epoch, snapRecs, segRecs, err := s.Log.Recover()
	if err != nil || epoch == 0 {
		return nil, nil, err
	}
	if len(snapRecs) != 2 {
		return nil, nil, format.Corruptf("snapshot %d holds %d records, want 2", epoch, len(snapRecs))
	}
	snap := new(Snapshot)
	if err := wire.Unmarshal(snapRecs[0], snap); err != nil {
		return nil, nil, format.Corruptf("snapshot %d: decode: %v", epoch, err)
	}
	if snap.Epoch != epoch {
		return nil, nil, format.Corruptf("snapshot %d claims epoch %d", epoch, snap.Epoch)
	}
	snap.Engine = snapRecs[1]
	recs := make([]Record, len(segRecs))
	for i, payload := range segRecs {
		if err := wire.Unmarshal(payload, &recs[i]); err != nil {
			return nil, nil, format.Corruptf("epoch %d: decode record %d: %v", epoch, i, err)
		}
	}
	return snap, recs, nil
}

// Append buffers one delta record. Records become durable at the next
// Flush — the daemon acknowledges the driver's checkpoint mark only
// after flushing, so anything lost in between is still in the driver's
// replay log.
func (s *Store) Append(r Record) error {
	var err error
	if s.recBuf, err = wire.Append(s.recBuf[:0], &r); err != nil {
		return fmt.Errorf("checkpoint: encode record: %w", err)
	}
	return s.Log.Append(s.recBuf)
}

// Compact starts the next epoch with snap as its snapshot (seglog's
// Compact: the rotation is all the caller waits for). snap.Epoch is
// assigned here; snap and everything it references belong to the store
// until the compaction is over.
func (s *Store) Compact(snap *Snapshot) error {
	snap.Epoch = s.Epoch() + 1
	return s.Log.Compact(func() ([][]byte, error) {
		// The first record is the snapshot without its blob, which follows
		// as it is instead of being copied into a second encoding.
		head := *snap
		head.Engine = nil
		meta, err := wire.Marshal(&head)
		return [][]byte{meta, snap.Engine}, err
	})
}
