// Package vertical implements §4 of the paper: incremental detection of
// CFD violations over vertically partitioned data (algorithms incVIns,
// incVDel and the batch/multi-CFD driver incVer), plus the batVer batch
// baseline in the style of Fan et al., ICDE 2010.
//
// Execution model. Every fragment lives at a site; all site state is only
// touched through handlers dispatched by a network.Cluster, so every
// cross-site byte is metered. The driver (System) orchestrates the
// message flow a data-driven implementation would have: eqids travel hop
// by hop along the HEV plan's edges, and the per-rule IDX site decides
// ∆V locally, exactly as in the paper's Figs. 4 and 5.
package vertical

import "repro/internal/network"

// OpKind says whether a unit update is an insertion or a deletion.
type OpKind int

const (
	// OpInsert is a tuple insertion.
	OpInsert OpKind = iota
	// OpDelete is a tuple deletion.
	OpDelete
)

// applyReq delivers a tuple's fragment projection to a site (the arrival
// of ∆Di itself, not detection traffic).
type applyReq struct {
	Op     OpKind
	ID     int64
	Values []string // aligned with the fragment schema
}

// barrierReq is the end-of-batch marker exchanged between sites (see
// System.barrier).
type barrierReq struct{}

// --- batch-grouped protocol ---
//
// Figs. 4 and 5 pay one eqid delivery per (node, consumer) and one vote
// per (checker, coordinator) for every unit update: O(|∆D|) messages per
// plan edge per batch. The driver runs the same phases once per wave (a
// maximal run of updates with distinct tuple ids), coalescing everything
// bound for one site into a single message: eqid deliveries merge per
// (source, destination) edge and plan stage, votes merge per (checker,
// coordinator) pair, and the same-site phases (fragment delivery,
// constant checks, Fig. 4 case analyses, releases, buffer clears) batch
// into one dispatch per site.

// batchFragReq delivers a wave's fragment projections and removals to one
// site, in wave order.
type batchFragReq struct {
	Items []applyReq
}

// A same-site call carries ids, indices and bitsets — never a rule-id
// string, never one struct per (tuple, rule). Its columns:
//
//   - IDs: the wave's tuple ids, in wave order; the other columns index
//     into it by position.
//   - a bitset over those positions ([]uint64, bit i in word i>>6), such
//     as Ins: the positions that are insertions.
//   - rows of such bitsets laid end to end, one row per listed node
//     (Members: which positions the node serves).
//   - rule sets: per position one row of bits over the rule numbering —
//     a rule's number is its rank by id among the rules in force, which
//     driver and site each derive from the rule set they hold (see
//     ruleGen). Gen stamps the numbering a call was coded under; a site
//     holding another rule set refuses it with xerr.ErrRuleSetSkew.
//
// Every count, index and padding bit is checked by the receiving handler;
// a malformed call is answered with an error naming site and method.

// batchEvalReq checks the site's pattern constants for every listed
// tuple.
type batchEvalReq struct {
	Gen uint32
	IDs []int64
}

// batchEvalResp holds, per tuple of the request, the set of rules whose
// local constants failed: len(IDs) rule-set rows.
type batchEvalResp struct {
	Failed []uint64
}

// batchVoteItem is one tuple's constant-rule match notice inside a
// coalesced vote message: it tells a constant rule's coordinator (the site
// owning B) that the tuple matched the pattern constants held at the
// sending site, for every listed rule (Fig. 5 lines 5–6: shipping the
// matching tuple ids).
type batchVoteItem struct {
	ID    int64
	Rules []string
}

// batchVoteReq carries every vote of a wave sharing one (checker,
// coordinator) pair: one message per pair per wave instead of per tuple.
type batchVoteReq struct {
	Items []batchVoteItem
}

// batchConstReq asks a coordinator to classify fully pattern-matching
// tuples against its constant rules (Fig. 5 lines 8–10, with the paper's
// line-9 typo fixed: a tuple is a violation iff t[B] ≠ tp[B]): Rules is
// one rule-set row per tuple, the rules to classify it under.
type batchConstReq struct {
	Gen   uint32
	IDs   []int64
	Rules []uint64
}

// batchConstResp answers in the request's shape: per tuple, the subset of
// its asked rules it violates.
type batchConstResp struct {
	Violations []uint64
}

// batchResolveReq carries every node of one cross-site stage (see
// optimizer.Plan.Stages) hosted at the receiving site, in ascending node
// id — so a same-site input is resolved, and buffered, before the node
// consuming it. Members row k lists the positions node Nodes[k] resolves
// for: Acquire where Ins has the position, lookup otherwise.
type batchResolveReq struct {
	IDs     []int64
	Ins     []uint64
	Nodes   []int
	Members []uint64
}

// batchResolveResp answers flat: node by node, members in ascending
// position.
type batchResolveResp struct {
	Eqs []int64
}

// batchDeliverItem is one shipped eqid inside a coalesced delivery: items
// for every (tuple, node) pair riding one (source, destination) edge.
type batchDeliverItem struct {
	ID   int64
	Node int
	Eq   int64
}

// batchDeliverReq is the coalesced eqid shipment — the metered message of
// §4, now one per (source, destination) edge per stage of a wave instead
// of one per edge per tuple.
type batchDeliverReq struct {
	Items []batchDeliverItem
}

// batchRuleReq runs the wave's incVIns/incVDel case analyses of Fig. 4 at
// one IDX site. Alive is one rule-set row per tuple; the site takes the
// tuples in order and, per tuple, the alive rules whose IDX it hosts in
// ascending rule number — the order the driver replays the reply in.
type batchRuleReq struct {
	Gen   uint32
	IDs   []int64
	Ins   []uint64
	Alive []uint64
}

// batchRuleResp lists the analyses with a non-empty local ∆V, in the
// order they ran: entry k is tuple position At[k] under rule number
// Rules[k], and owns the next Counts[k] of IDs — the tuples that become
// violations of the rule (the position is an insertion) or stop being
// ones (a deletion).
type batchRuleResp struct {
	At     []int
	Rules  []int
	Counts []int
	IDs    []int64
}

// batchReleaseReq undoes the reference counts deleted tuples held:
// Members row k lists the positions to release on node Nodes[k]. Nodes
// come consumers first.
type batchReleaseReq struct {
	IDs     []int64
	Nodes   []int
	Members []uint64
}

// batchEndReq clears the wave's eqid buffers at one site.
type batchEndReq struct {
	IDs []int64
}

// shipColsReq asks a site for its columns relevant to one rule (batVer).
type shipColsReq struct {
	Rule string
}

// colRow is one tuple's projection onto a site's rule-relevant attributes.
type colRow struct {
	ID   int64
	Vals []string
}

// shipColsResp carries the (pre-filtered) column data to the coordinator.
type shipColsResp struct {
	Attrs []string
	Rows  []colRow
}

// empty is the reply type of fire-and-forget handlers.
type empty struct{}

// The methods a vertical site serves, one handle each (site.register).
var (
	mBarrier      = network.NewMethod[barrierReq, empty]("v.barrier")
	mBatchFrag    = network.NewMethod[batchFragReq, empty]("v.batchFrag")
	mBatchEval    = network.NewMethod[batchEvalReq, batchEvalResp]("v.batchEval")
	mBatchVote    = network.NewMethod[batchVoteReq, empty]("v.batchVote")
	mBatchConst   = network.NewMethod[batchConstReq, batchConstResp]("v.batchConst")
	mBatchResolve = network.NewMethod[batchResolveReq, batchResolveResp]("v.batchResolve")
	mBatchDeliver = network.NewMethod[batchDeliverReq, empty]("v.batchDeliver")
	mBatchRule    = network.NewMethod[batchRuleReq, batchRuleResp]("v.batchRule")
	mBatchRelease = network.NewMethod[batchReleaseReq, empty]("v.batchRelease")
	mBatchEnd     = network.NewMethod[batchEndReq, empty]("v.batchEnd")
	mShipCols     = network.NewMethod[shipColsReq, shipColsResp]("v.shipCols")
	mAddRules     = network.NewMethod[addRulesReq, empty]("v.addRules")
	mDropRules    = network.NewMethod[vDropRulesReq, empty]("v.dropRules")
	mListIDs      = network.NewMethod[listIDsReq, listIDsResp]("v.listIDs")
)
