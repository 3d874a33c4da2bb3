package vertical

import (
	"testing"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// handles lists every method handle the package declares (messages.go),
// for the tests that hold them to the sites' registrations and their
// meter to the wire.
var handles = []wiretest.Handle{
	wiretest.HandleOf(mBarrier), wiretest.HandleOf(mBatchFrag), wiretest.HandleOf(mBatchEval),
	wiretest.HandleOf(mBatchVote), wiretest.HandleOf(mBatchConst), wiretest.HandleOf(mBatchResolve),
	wiretest.HandleOf(mBatchDeliver), wiretest.HandleOf(mBatchRule), wiretest.HandleOf(mBatchRelease),
	wiretest.HandleOf(mBatchEnd), wiretest.HandleOf(mShipCols), wiretest.HandleOf(mAddRules),
	wiretest.HandleOf(mDropRules), wiretest.HandleOf(mListIDs),
}

// Handles is handles, for the package's external tests.
var Handles = handles

// FuzzCallSize: what an in-process call meters is what the wire would
// carry. Arbitrary bytes are decoded as every handle's request and reply,
// and a metered call of the two must cost exactly their Marshal lengths
// per direction, with Dispatch answering the same reply bytes
// (wiretest.Handle.CheckMeter).
func FuzzCallSize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // a count far beyond the input
	for _, v := range wireMessages() {
		seed, err := wire.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, h := range handles {
			h.CheckMeter(t, data)
		}
	})
}
