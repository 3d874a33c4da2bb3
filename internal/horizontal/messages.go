// Package horizontal implements §6 of the paper: incremental detection of
// CFD violations over horizontally partitioned data (incHor: the insertion
// and deletion protocols regrouped by (rule, X-group), and the local-check
// rules) plus the batHor batch baseline of Fan et al., ICDE 2010.
//
// Constant CFDs are checked at the owning site with no shipment. For
// variable CFDs, each site indexes its local tuples by (X values, B value)
// digests with a per-class violation flag; an update ships (coded) tuples
// to other sites only when its equivalence class [t]_{X∪{B}} is absent
// locally — the shipment-avoidance short-circuits of §6. The MD5 tuple
// coding of §6's optimization is the default wire format; it can be
// switched off to measure its effect (EXPERIMENTS.md ablation).
package horizontal

import (
	"crypto/md5"

	"repro/internal/network"
	"repro/internal/relation"
)

// OpKind distinguishes insertion from deletion processing.
type OpKind int

const (
	// OpInsert processes a tuple insertion.
	OpInsert OpKind = iota
	// OpDelete processes a tuple deletion.
	OpDelete
)

// code is a site's in-memory equivalence key: the 16-byte MD5 of the
// length-prefixed value encoding. A comparable array, so index map
// probes never materialize a key string.
type code [16]byte

const codeLen = len(code{})

// keyRef identifies an equivalence key on the wire: either a 16-byte MD5
// code (the §6 optimization) or the raw attribute values.
type keyRef struct {
	Digest []byte
	Raw    []string
}

// code canonicalizes the reference to the in-memory index key; ok is
// false for a digest that is not 16 bytes, which no driver sends.
func (k keyRef) code() (c code, ok bool) {
	if k.Digest != nil {
		if len(k.Digest) != codeLen {
			return c, false
		}
		return code(k.Digest), true
	}
	return digestOf(k.Raw), true
}

// digestOf MD5-codes a value list. Values are framed with the same
// length-prefixed encoding as grouping keys (relation.AppendKeyVals), so
// distinct value lists can never collide through the framing — the old
// \x1f-separator framing aliased ["a\x1f","b"] and ["a","\x1fb"].
func digestOf(vals []string) code {
	var buf [64]byte
	return md5.Sum(relation.AppendKeyVals(buf[:0], vals))
}

// --- batch-grouped protocol ---
//
// §6's protocols pay one probe broadcast (and possibly a demote round)
// per unit update: O(|∆D| · n) messages per batch. The batch-grouped
// protocol regroups the same work by (rule, X-group): every owner runs
// the whole batch's local phase in one same-site call, the driver
// aggregates the touched groups, and everything bound for one peer —
// survey questions, promote orders, demote orders — rides in one envelope
// per (coordinator, peer) per batch: O(n) messages per phase, independent
// of |∆D|.

// batchApplyItem is one unit update inside an owner's local phase.
type batchApplyItem struct {
	Op     OpKind
	ID     int64
	Values []string
}

// batchApplyReq runs the batch's local phase at one owning site: fragment
// maintenance, constant-rule checks and class-membership updates for every
// update the site owns, in batch order. RawKeys asks for raw X values in
// the returned group records (MD5 coding off), for the wire items.
type batchApplyReq struct {
	Updates []batchApplyItem
	RawKeys bool
}

// constMark is one constant-rule outcome of the local phase: the tuple
// violates Rule; Add distinguishes an inserted violator (∆V+) from a
// deleted one (∆V−).
type constMark struct {
	Rule string
	ID   int64
	Add  bool
}

// touchedGroup describes one (rule, X-group) the local phase changed at
// the owner: which tuples entered and left, whether the local class
// structure changed (a B-class appeared or disappeared — the only way the
// group's violation status can change), and the local evidence the driver
// aggregates: the pre-phase flag and the post-phase distinct B digests
// (capped at two; two means "at least two", which already decides the
// group).
type touchedGroup struct {
	Rule string
	// X is the 16-byte group code; XRaw carries the raw X values instead
	// when RawKeys was set (the §6 coding ablation).
	X    []byte
	XRaw []string
	// PreKnown reports the group had local classes before the batch;
	// PreFlag is their shared violation flag.
	PreKnown bool
	PreFlag  bool
	// PostBs are up to two distinct B digests present locally after the
	// phase. Structural reports the local class set changed; NewB that a
	// B value absent before the phase is present after it.
	PostBs     [][]byte
	Structural bool
	NewB       bool
	// AnyIn and AnyOut report that some class left after the phase is
	// flagged, and that some is not: a settle to flag f flips a class iff
	// f ? AnyOut : AnyIn, so the driver sends one only then.
	AnyIn  bool
	AnyOut bool
	// Inserted and Deleted list the batch's member changes in this group;
	// DeletedWasInV is aligned with Deleted (the pre-batch flag of each
	// deleted tuple's class).
	Inserted      []int64
	Deleted       []int64
	DeletedWasInV []bool
}

// batchApplyResp carries the local phase's outcomes.
type batchApplyResp struct {
	Consts []constMark
	Groups []touchedGroup
}

// probeGroupItem is one group inside a coalesced probe envelope. Bs are
// the distinct B digests (≤ 2) the coordinator already knows exist after
// the batch; Decided short-circuits the survey: the coordinator has proof
// of ≥ 2 distinct B values, so the receiver promotes its classes without
// answering. An undecided receiver that sees ≥ 2 distinct values across
// Bs and its own classes promotes inline, as §6's insertion probe does —
// a group only ever needs a second (settle) round to demote.
type probeGroupItem struct {
	Rule    string
	X       keyRef
	Bs      [][]byte
	Decided bool
}

// forwardGroupReq ships an owner's unresolved group evidence to the
// batch's relay site (the aggregation hop of the batch-grouped protocol):
// one message per probing owner per batch, after which the relay runs a
// single probe fan-out for every group at once. The receiving handler is
// state-free — aggregation happens in the driver, like vote counting.
type forwardGroupReq struct {
	Items []probeGroupItem
}

// probeGroupReq is the coalesced probe: every group item bound for one
// peer, one message per (relay, peer) per batch.
type probeGroupReq struct {
	Items []probeGroupItem
}

// probeGroupItemResp answers one probed group: whether the site holds
// classes of the group, their shared flag before any inline promotion, up
// to two distinct local B digests, and the members of classes the inline
// promotion flipped into V.
type probeGroupItemResp struct {
	HasClasses bool
	Flag       bool
	Bs         [][]byte
	Promoted   bool
	Added      []int64
}

// probeGroupResp carries one response per probed item.
type probeGroupResp struct {
	Items []probeGroupItemResp
}

// settleGroupItem pins one group's final violation flag at a site.
type settleGroupItem struct {
	Rule string
	X    keyRef
	Flag bool
}

// settleGroupReq is the coalesced settle phase: flag corrections for every
// group bound for one site (demotes after a survey, plus the same-site
// settles at the touching owners).
type settleGroupReq struct {
	Items []settleGroupItem
}

// settleGroupItemResp lists the members of classes whose flag flipped.
type settleGroupItemResp struct {
	Added   []int64
	Removed []int64
}

// settleGroupResp carries one response per settled group.
type settleGroupResp struct {
	Items []settleGroupItemResp
}

// shipMatchingReq asks a site for its tuples matching a rule's pattern
// (batHor shipment).
type shipMatchingReq struct {
	Rule string
}

// matchRow is one shipped (partial) tuple: id, X values and B value.
type matchRow struct {
	ID int64
	X  []string
	B  string
}

// shipMatchingResp carries the matching rows.
type shipMatchingResp struct {
	Rows []matchRow
}

// localDetectReq asks a site for its local violations of a rule (used for
// locally checkable rules, which never need shipment).
type localDetectReq struct {
	Rule string
}

// localDetectResp lists the site's local violations of the rule.
type localDetectResp struct {
	IDs []int64
}

// empty is the reply of fire-and-forget handlers.
type empty struct{}

// The methods a horizontal site serves, one handle each (site.register).
var (
	mBatchApply   = network.NewMethod[batchApplyReq, batchApplyResp]("h.batchApply")
	mForwardGroup = network.NewMethod[forwardGroupReq, empty]("h.forwardGroup")
	mProbeGroup   = network.NewMethod[probeGroupReq, probeGroupResp]("h.probeGroup")
	mSettleGroup  = network.NewMethod[settleGroupReq, settleGroupResp]("h.settleGroup")
	mShipMatching = network.NewMethod[shipMatchingReq, shipMatchingResp]("h.shipMatching")
	mLocalDetect  = network.NewMethod[localDetectReq, localDetectResp]("h.localDetect")
	mSeedRules    = network.NewMethod[seedRulesReq, seedRulesResp]("h.seedRules")
	mDropRules    = network.NewMethod[dropRulesReq, empty]("h.dropRules")
)
