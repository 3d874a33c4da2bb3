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

import "repro/internal/relation"

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

// applyRuleResp is the rule's local ∆V contribution: tuple ids that become
// violations (∆V+) or stop being violations (∆V−) of this rule.
type applyRuleResp struct {
	Added   []int64
	Removed []int64
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

// batchEvalReq checks the site's pattern constants for every listed
// tuple; Failed is aligned with IDs.
type batchEvalReq struct {
	IDs []int64
}

// batchEvalResp lists, per tuple, the rules whose local constants failed.
type batchEvalResp struct {
	Failed [][]string
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

// batchConstItem asks a constant rule's coordinator to classify one fully
// pattern-matching tuple (Fig. 5 lines 8–10, with the paper's line-9 typo
// fixed: a tuple is a violation iff t[B] ≠ tp[B]); a batchConstReq carries
// a whole wave's classifications for the site, answered positionally by
// batchConstResp.
type batchConstItem struct {
	Rule string
	ID   int64
	Op   OpKind
}

type batchConstReq struct {
	Items []batchConstItem
}

type batchConstResp struct {
	Violations []bool
}

// batchResolveItem resolves one plan node for one tuple (Acquire on
// insertion, lookup on deletion).
type batchResolveItem struct {
	ID      int64
	Acquire bool
}

// batchResolveGroup resolves one plan node for every listed tuple.
type batchResolveGroup struct {
	Node  int
	Items []batchResolveItem
}

// batchResolveReq carries every node of one cross-site stage (see
// optimizer.Plan.Stages) hosted at the receiving site, in ascending node
// id — so a same-site input is resolved, and buffered, before the node
// consuming it. Eqs answers flat, group by group, item by item.
type batchResolveReq struct {
	Groups []batchResolveGroup
}

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

// batchRuleItem runs one (rule, tuple) incVIns/incVDel case analysis of
// Fig. 4 at the rule's IDX site and maintains the IDX; batchRuleResp
// answers positionally with each item's local ∆V.
type batchRuleItem struct {
	Rule string
	ID   int64
	Op   OpKind
}

type batchRuleReq struct {
	Items []batchRuleItem
}

type batchRuleResp struct {
	Items []applyRuleResp
}

// batchReleaseItem undoes one (tuple, node) reference count.
type batchReleaseItem struct {
	ID   int64
	Node int
}

type batchReleaseReq struct {
	Items []batchReleaseItem
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

func toInt64s(ids []relation.TupleID) []int64 {
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id)
	}
	return out
}
