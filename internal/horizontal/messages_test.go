package horizontal

import (
	"testing"

	"repro/internal/cfd"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// wireMessages is the package's closed set of request/reply types, one
// value each with every nested type populated.
func wireMessages() []any {
	return []any{
		shipMatchingReq{}, shipMatchingResp{Rows: []matchRow{{X: []string{""}}}},
		localDetectReq{}, localDetectResp{IDs: []int64{0}},
		batchApplyReq{Updates: []batchApplyItem{{Values: []string{""}}}},
		batchApplyResp{Consts: []constMark{{}}, Groups: []touchedGroup{{X: []byte{0}, PostBs: [][]byte{{0}}, Inserted: []int64{0}, DeletedWasInV: []bool{false}}}},
		forwardGroupReq{Items: []probeGroupItem{{X: keyRef{Digest: []byte{0}, Raw: []string{""}}, Bs: [][]byte{{0}}}}},
		probeGroupReq{Items: []probeGroupItem{{}}}, probeGroupResp{Items: []probeGroupItemResp{{Added: []int64{0}}}},
		settleGroupReq{Items: []settleGroupItem{{}}}, settleGroupResp{Items: []settleGroupItemResp{{Added: []int64{0}, Removed: []int64{0}}}},
		empty{},
		seedRulesReq{Rules: []cfd.CFD{{LHS: []string{""}, LHSPattern: []string{""}}}, Local: []bool{false}},
		seedRulesResp{Items: []seedRulesItem{{Violations: []int64{0}, Groups: []seedGroupInfo{{X: []byte{0}, Bs: [][]byte{{0}}}}}}},
		dropRulesReq{Rules: []string{""}},
	}
}

// TestWireCodecMatchesGob runs the package's whole message set plus the
// nil/empty edge shapes through the call-path codec and through gob, and
// requires identical decoded values; the encoded bytes must also be the
// ones the codec's element-by-element rules give, whichever slice plan
// wrote them.
func TestWireCodecMatchesGob(t *testing.T) {
	cases := append(wireMessages(),
		// Empty but non-nil slices at every nesting depth decode to nil.
		batchApplyResp{Consts: []constMark{}, Groups: []touchedGroup{{X: []byte{}, PostBs: [][]byte{{}, nil, {1}}, Inserted: []int64{}}}},
		probeGroupReq{Items: []probeGroupItem{{Rule: "r", X: keyRef{Raw: []string{"", "a"}}, Bs: [][]byte{}}}},
		// Negative and wide integers, non-ASCII strings.
		batchApplyReq{Updates: []batchApplyItem{{Op: OpDelete, ID: -1 << 62, Values: []string{"é", ""}}, {ID: 1<<63 - 1}}, RawKeys: true},
		seedRulesReq{Rules: []cfd.CFD{{ID: "phi", LHS: []string{"a", "b"}, RHS: "c", LHSPattern: []string{"_", "x"}, RHSPattern: "_"}}, Local: []bool{true, false}},
	)
	for _, v := range cases {
		wiretest.GobParity(t, v)
		wiretest.PlanParity(t, v)
	}
}

// FuzzPayload drives arbitrary bytes through the call-path decoder as a
// batchApplyResp, the package's most deeply nested reply.
func FuzzPayload(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // a count far beyond the input
	for _, v := range []batchApplyResp{
		{},
		{Consts: []constMark{{Rule: "r1", ID: 7, Add: true}}},
		{Groups: []touchedGroup{{
			Rule: "r2", X: []byte{1, 2, 3}, XRaw: []string{"a"}, PreKnown: true,
			PostBs: [][]byte{{4}, {5}}, Structural: true,
			Inserted: []int64{1, -2}, Deleted: []int64{3}, DeletedWasInV: []bool{true},
		}}},
	} {
		seed, err := wire.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Fuzz(wiretest.FuzzDecode[batchApplyResp])
}
