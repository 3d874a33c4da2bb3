package vertical

import (
	"bytes"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/partition"
	"repro/internal/wire/wiretest"
	"repro/internal/workload"
)

// seededSites builds a small in-process system and returns its sites,
// holding fragments, HEVs and IDX entries of more than one key.
func seededSites(t testing.TB, rows int) []*site {
	t.Helper()
	gen := workload.NewSized(workload.TPCH, 7, 800)
	_, hs := localSystem(t, gen.Relation(rows), partition.RoundRobinVertical(gen.Schema(), 3), gen.Rules(8), true)
	sites := make([]*site, len(hs))
	for i, h := range hs {
		sites[i] = h.st
	}
	return sites
}

// emptySite returns a site over like's fragment schema with no plan nodes,
// rules or data: what a daemon restores a checkpoint into.
func emptySite(t testing.TB, like *site) *site {
	t.Helper()
	s, err := newSite(like.id, like.schema, &optimizer.Plan{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSnapshotIsCanonical: a site restored from a snapshot snapshots to
// the same bytes — the lists are written in key order, not in the order
// the site's maps happen to iterate in.
func TestSnapshotIsCanonical(t *testing.T) {
	lists := 0
	for _, s := range seededSites(t, 120) {
		data, err := s.snapshotState()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range s.nodes {
			if n.hev != nil {
				lists++
			}
		}
		for _, r := range s.rules {
			if r.idx != nil {
				lists++
			}
		}
		twin := emptySite(t, s)
		if err := twin.restoreState(data); err != nil {
			t.Fatal(err)
		}
		if got, err := twin.snapshotState(); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("site %d: restored site snapshots differently (err %v)", s.id, err)
		}
	}
	if lists < 4 {
		t.Fatalf("seed too small to prove an order: %d HEVs and IDXes in all", lists)
	}
}

// FuzzSnapshot drives arbitrary bytes through the checkpoint decoder: as
// a vSiteState they must never panic, never size anything beyond the
// input, and re-encode to themselves when accepted; as a site's state
// they must restore or be refused with an error.
func FuzzSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // a count far beyond the input
	// Small seeds: the fuzzer minimizes whatever it keeps.
	sites := seededSites(f, 12)
	for _, s := range sites {
		seed, err := s.snapshotState()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.FuzzDecode[vSiteState](t, data)
		s := emptySite(t, sites[0])
		if s.restoreState(data) != nil {
			return
		}
		if _, err := s.snapshotState(); err != nil {
			t.Fatalf("snapshot of a restored site: %v", err)
		}
	})
}
