package horizontal

import (
	"testing"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// handles lists every method handle the package declares (messages.go),
// for the tests that hold them to the sites' registrations and their
// meter to the wire.
var handles = []wiretest.Handle{
	wiretest.HandleOf(mBatchApply), wiretest.HandleOf(mForwardGroup), wiretest.HandleOf(mProbeGroup),
	wiretest.HandleOf(mSettleGroup), wiretest.HandleOf(mShipMatching), wiretest.HandleOf(mLocalDetect),
	wiretest.HandleOf(mSeedRules), wiretest.HandleOf(mDropRules),
}

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
