// Package xerr holds the sentinel errors shared across the repository's
// layers. Every layer — relation, cfd, partition, the detection engines
// and the session façade — wraps these with context via fmt.Errorf's %w,
// so callers classify failures with errors.Is instead of matching
// message strings. The root repro package re-exports them.
package xerr

import (
	"errors"
	"fmt"
	"strings"
)

var (
	// ErrArityMismatch marks a tuple, pattern or value list whose length
	// does not match its schema or rule.
	ErrArityMismatch = errors.New("arity mismatch")
	// ErrUnknownAttribute marks a reference to an attribute the schema
	// (or partition scheme) does not define.
	ErrUnknownAttribute = errors.New("unknown attribute")
	// ErrDuplicateRule marks a rule id colliding with one already in
	// force.
	ErrDuplicateRule = errors.New("duplicate rule")
	// ErrUnknownRule marks an operation naming a rule that is not in
	// force.
	ErrUnknownRule = errors.New("unknown rule")
	// ErrClosed marks an operation on a closed session.
	ErrClosed = errors.New("session closed")
	// ErrSiteDown marks a remote site that could not be reached within
	// the transport's retry budget (TCP deployments): the process was
	// killed, lost its state, or its address stopped answering.
	ErrSiteDown = errors.New("site down")
	// ErrCheckpointCorrupt marks an on-disk checkpoint (snapshot or
	// delta log) that failed validation — truncated, bad CRC, or
	// mixed-version files. Recovery never loads partial state: a corrupt
	// checkpoint degrades to an empty daemon and a full reseed.
	ErrCheckpointCorrupt = errors.New("checkpoint corrupt")
	// ErrBatchInDoubt marks a distributed round interrupted after
	// dispatch began (a site or the driver failed mid-round): the
	// cluster may hold a partial application. The session quarantines
	// the round and re-drives it under its original sequence numbers —
	// in memory within the in-doubt retry budget, or from the journal
	// on driver restart — before accepting new writes.
	ErrBatchInDoubt = errors.New("batch in doubt")
	// ErrReplayOverflow marks a driver replay log that outgrew its
	// bound before a checkpoint mark pruned it: a daemon recovering
	// behind that log can no longer be caught up, so the condition is
	// surfaced loudly instead of silently truncating the unacked tail.
	ErrReplayOverflow = errors.New("replay log overflow")
	// ErrJournalCorrupt marks a driver journal that failed validation —
	// truncated base, mid-file CRC damage, version or interleave
	// violations. Resume never folds partial intent history: a corrupt
	// journal is reset and the driver starts a fresh session.
	ErrJournalCorrupt = errors.New("journal corrupt")
	// ErrStoreCorrupt marks an out-of-core data file (internal/storage
	// page store) that failed validation — bad magic or version, a
	// mid-file CRC failure, or a page payload that does not decode. A
	// torn trailing record is NOT corruption (crash mid-append) and is
	// truncated away on open.
	ErrStoreCorrupt = errors.New("storage corrupt")
	// ErrRuleSetSkew marks a vertical same-site call coded under a rule
	// numbering the receiving site does not hold: driver and site
	// disagree on the rule set in force, so the call's rule indices
	// would name other rules there. It is a divergence, never retried,
	// and stays internal (the repro package does not re-export it).
	ErrRuleSetSkew = errors.New("rule set out of sync")
)

// sentinels lists every sentinel for cross-process reconstruction.
var sentinels = []error{
	ErrArityMismatch, ErrUnknownAttribute,
	ErrDuplicateRule, ErrUnknownRule, ErrClosed, ErrSiteDown,
	ErrCheckpointCorrupt, ErrBatchInDoubt, ErrReplayOverflow,
	ErrJournalCorrupt, ErrStoreCorrupt, ErrRuleSetSkew,
}

// Rewrap re-attaches sentinel identity to an error message that crossed
// a process boundary as a bare string (a site daemon's reply): if msg
// contains a sentinel's text, the returned error wraps that sentinel so
// errors.Is keeps working; otherwise it is a plain error. Sentinels are
// matched longest-text-first so "unknown attribute" never shadows a
// longer message embedding it.
func Rewrap(msg string) error {
	var best error
	for _, s := range sentinels {
		if !strings.Contains(msg, s.Error()) {
			continue
		}
		if best == nil || len(s.Error()) > len(best.Error()) {
			best = s
		}
	}
	if best == nil {
		return errors.New(msg)
	}
	return fmt.Errorf("%s: %w", strings.TrimSuffix(strings.TrimSuffix(msg, best.Error()), ": "), best)
}
