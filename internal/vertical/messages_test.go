package vertical

import (
	"testing"

	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/optimizer"
	"repro/internal/wire/wiretest"
)

// wireMessages is the package's closed set of request/reply types, one
// value each with every nested type populated.
func wireMessages() []any {
	return []any{
		barrierReq{}, shipColsReq{}, shipColsResp{Attrs: []string{""}, Rows: []colRow{{Vals: []string{""}}}},
		batchFragReq{Items: []applyReq{{Values: []string{""}}}}, batchEvalReq{IDs: []int64{0}}, batchEvalResp{Failed: [][]string{{""}}},
		batchVoteReq{Items: []batchVoteItem{{Rules: []string{""}}}},
		batchConstReq{Items: []batchConstItem{{}}}, batchConstResp{Violations: []bool{false}},
		batchResolveReq{Groups: []batchResolveGroup{{Items: []batchResolveItem{{}}}}}, batchResolveResp{Eqs: []int64{0}},
		batchDeliverReq{Items: []batchDeliverItem{{}}},
		batchRuleReq{Items: []batchRuleItem{{}}}, batchRuleResp{Items: []applyRuleResp{{Added: []int64{0}, Removed: []int64{0}}}},
		batchReleaseReq{Items: []batchReleaseItem{{}}}, batchEndReq{IDs: []int64{0}},
		empty{},
		addRulesReq{Rules: []cfd.CFD{{LHS: []string{""}, LHSPattern: []string{""}}}, Sub: &optimizer.Plan{
			Nodes:    []optimizer.Node{{Attrs: []string{""}, Inputs: []optimizer.NodeID{0}}},
			Bindings: map[string]optimizer.RuleBinding{"": {}},
		}},
		vDropRulesReq{Rules: []string{""}},
		listIDsReq{}, listIDsResp{IDs: []int64{0}},
	}
}

// TestWireCodecMatchesGob runs the package's whole message set plus a
// real grafted sub-plan and the nil/empty edge shapes through the
// call-path codec and through gob, and requires identical decoded values.
func TestWireCodecMatchesGob(t *testing.T) {
	plan, err := optimizer.NaiveChainPlan(optimizer.Input{
		NumSites:  3,
		AttrSites: map[string][]int{"a": {0}, "b": {1}, "c": {2}, "d": {0, 2}},
		Rules: []optimizer.RuleSpec{
			{ID: "r1", LHS: []string{"a", "b"}, RHS: "c"},
			{ID: "r2", LHS: []string{"b", "d"}, RHS: "a"},
			{ID: "r3", LHS: []string{"a"}, RHS: "d"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rules := []cfd.CFD{{ID: "r1", LHS: []string{"a", "b"}, RHS: "c", LHSPattern: []string{"_", "x"}, RHSPattern: "_"}}

	cases := append(wireMessages(),
		// The plan's unexported edge set is dropped by both codecs; its
		// map of bindings travels whole.
		addRulesReq{Rules: rules, FirstNode: 4, Sub: plan},
		// Pointer and map edge shapes: nil pointer, pointer to a zero
		// struct, empty non-nil map.
		addRulesReq{Rules: rules},
		addRulesReq{Sub: &optimizer.Plan{}},
		addRulesReq{Sub: &optimizer.Plan{Nodes: []optimizer.Node{}, Bindings: map[string]optimizer.RuleBinding{}}},
		// Empty but non-nil slices at every nesting depth decode to nil.
		batchEvalResp{Failed: [][]string{{}, nil, {"r1"}}},
		batchFragReq{Items: []applyReq{{Op: OpDelete, ID: -5, Values: []string{}}}},
		batchDeliverReq{Items: []batchDeliverItem{{ID: 1<<63 - 1, Node: -3, Eq: -1 << 63}}},
		batchRuleResp{Items: []applyRuleResp{{}, {Added: []int64{}, Removed: []int64{9}}}},
		// The stage-grouped resolve: zero groups, a group without items
		// (decodes to nil, like any empty slice), groups of uneven length.
		batchResolveReq{},
		batchResolveReq{Groups: []batchResolveGroup{{Node: 7, Items: []batchResolveItem{}}}},
		batchResolveReq{Groups: []batchResolveGroup{
			{Node: 0, Items: []batchResolveItem{{ID: 1, Acquire: true}, {ID: -2}}},
			{Node: 1<<31 - 1, Items: []batchResolveItem{{ID: 1<<63 - 1, Acquire: true}}},
		}},
		batchResolveResp{Eqs: []int64{1, -1 << 63, 1<<63 - 1}},
	)
	for _, v := range cases {
		wiretest.GobParity(t, v)
	}
}

// FuzzPayload drives arbitrary bytes through the call-path decoder as the
// package's two structurally richest requests: a batchDeliverReq, the
// coalesced eqid shipment, and a batchResolveReq, whose groups nest a
// second counted list inside the first.
func FuzzPayload(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // a count far beyond the input
	for _, v := range []any{
		batchDeliverReq{},
		batchDeliverReq{Items: []batchDeliverItem{{ID: 1, Node: 2, Eq: 3}, {ID: -1, Node: 0, Eq: 1 << 40}}},
		batchResolveReq{}, // zero groups
		batchResolveReq{Groups: []batchResolveGroup{
			{Node: 3, Items: []batchResolveItem{{ID: 1, Acquire: true}, {ID: 2}}},
			{Node: 9, Items: []batchResolveItem{{ID: 1, Acquire: true}}},
		}},
	} {
		seed, err := network.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		if len(seed) > 2 {
			f.Add(seed[:len(seed)-2]) // cut inside the last group's items
			grown := append([]byte(nil), seed...)
			grown[0]++ // one more group (or item) declared than the bytes hold
			f.Add(grown)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.FuzzDecode[batchDeliverReq](t, data)
		wiretest.FuzzDecode[batchResolveReq](t, data)
	})
}
