package vertical

import (
	"bytes"
	"testing"

	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/optimizer"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// wireMessages is the package's closed set of request/reply types, one
// value each with every nested type populated.
func wireMessages() []any {
	return []any{
		barrierReq{}, shipColsReq{}, shipColsResp{Attrs: []string{""}, Rows: []colRow{{Vals: []string{""}}}},
		batchFragReq{Items: []applyReq{{Values: []string{""}}}}, batchEvalReq{IDs: []int64{0}}, batchEvalResp{Failed: []uint64{0}},
		batchVoteReq{Items: []batchVoteItem{{Rules: []string{""}}}},
		batchConstReq{IDs: []int64{0}, Rules: []uint64{0}}, batchConstResp{Violations: []uint64{0}},
		batchResolveReq{IDs: []int64{0}, Ins: []uint64{0}, Nodes: []int{0}, Members: []uint64{0}}, batchResolveResp{Eqs: []int64{0}},
		batchDeliverReq{Items: []batchDeliverItem{{}}},
		batchRuleReq{IDs: []int64{0}, Ins: []uint64{0}, Alive: []uint64{0}},
		batchRuleResp{At: []int{0}, Rules: []int{0}, Counts: []int{0}, IDs: []int64{0}},
		batchReleaseReq{IDs: []int64{0}, Nodes: []int{0}, Members: []uint64{0}}, batchEndReq{IDs: []int64{0}},
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
// call-path codec and through gob, and requires identical decoded values;
// the encoded bytes must also be the ones the codec's element-by-element
// rules give, whichever slice plan wrote them.
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
		batchEvalResp{Failed: []uint64{}},
		batchEvalResp{Failed: []uint64{0, 1 << 63, 1<<64 - 1}},
		batchFragReq{Items: []applyReq{{Op: OpDelete, ID: -5, Values: []string{}}}},
		batchDeliverReq{Items: []batchDeliverItem{{ID: 1<<63 - 1, Node: -3, Eq: -1 << 63}}},
		batchRuleResp{At: []int{}, IDs: []int64{9}},
		batchRuleResp{At: []int{0, 63}, Rules: []int{1<<31 - 1, 0}, Counts: []int{2, 1}, IDs: []int64{1, -2, 1<<63 - 1}},
		// The stage resolve: no nodes, a node without members, member rows
		// of more than one word.
		batchResolveReq{},
		batchResolveReq{IDs: []int64{1, -2}, Ins: []uint64{1}, Nodes: []int{7}, Members: []uint64{0}},
		batchResolveReq{IDs: manyIDs(70), Ins: []uint64{1<<64 - 1, 0x3F}, Nodes: []int{0, 1<<31 - 1},
			Members: []uint64{1, 0, 1 << 63, 0x20}},
		batchResolveResp{Eqs: []int64{1, -1 << 63, 1<<63 - 1}},
	)
	for _, v := range cases {
		wiretest.GobParity(t, v)
		wiretest.PlanParity(t, v)
	}
}

// TestScalarColumnsEncodeAsTheirElements: the columns the same-site
// messages are made of take the codec's native slice plans; their bytes
// must be the ones the element-by-element rules give, and so the ones a
// slice the native plans do not cover gets for the same elements.
func TestScalarColumnsEncodeAsTheirElements(t *testing.T) {
	sites, ints := []network.SiteID{0, 3, -1, 1 << 40}, []int{0, 3, -1, 1 << 40}
	for _, v := range []any{
		sites, ints, []network.SiteID{}, []network.SiteID(nil),
		[]int64{}, []int64(nil), []uint64{}, []bool(nil), []string{}, []string{"", "é"},
		batchResolveReq{IDs: []int64{}, Ins: nil, Nodes: []int{}, Members: []uint64{}},
		batchRuleReq{Gen: 1<<32 - 1, IDs: manyIDs(130), Ins: []uint64{1<<64 - 1, 1<<64 - 1, 3}, Alive: make([]uint64, 130)},
		listIDsResp{IDs: []int64{-1 << 63, 1<<63 - 1}},
	} {
		wiretest.PlanParity(t, v)
	}
	viaGeneric, err := wire.Marshal(sites)
	if err != nil {
		t.Fatal(err)
	}
	viaNative, err := wire.Marshal(ints)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaGeneric, viaNative) {
		t.Errorf("[]SiteID (generic plan) %x, []int (native plan) %x for the same elements", viaGeneric, viaNative)
	}
}

// manyIDs returns n distinct tuple ids.
func manyIDs(n int) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i) - 3
	}
	return ids
}

// FuzzPayload drives arbitrary bytes through the call-path decoder as the
// package's two structurally richest requests: a batchDeliverReq, the
// coalesced eqid shipment (a counted list of structs), and a
// batchResolveReq, four scalar columns one after the other.
func FuzzPayload(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // a count far beyond the input
	for _, v := range []any{
		batchDeliverReq{},
		batchDeliverReq{Items: []batchDeliverItem{{ID: 1, Node: 2, Eq: 3}, {ID: -1, Node: 0, Eq: 1 << 40}}},
		batchResolveReq{}, // no nodes
		batchResolveReq{IDs: []int64{1, 2}, Ins: []uint64{1}, Nodes: []int{3, 9}, Members: []uint64{3, 1}},
	} {
		seed, err := wire.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		if len(seed) > 2 {
			f.Add(seed[:len(seed)-2]) // cut inside the last list
			grown := append([]byte(nil), seed...)
			grown[0]++ // one more element declared than the bytes hold
			f.Add(grown)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.FuzzDecode[batchDeliverReq](t, data)
		wiretest.FuzzDecode[batchResolveReq](t, data)
	})
}
