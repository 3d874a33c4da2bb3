package horizontal

import (
	"bytes"
	"testing"

	"repro/internal/partition"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
	"repro/internal/workload"
)

// seededSites builds a small in-process system and returns its sites,
// holding fragments, rules and class indexes of more than one entry.
func seededSites(t testing.TB, rows int) []*site {
	t.Helper()
	gen := workload.NewSized(workload.TPCH, 7, 800)
	sys, err := NewSystem(gen.Relation(rows), partition.HashHorizontal("c_name", 3), gen.Rules(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sys.sites
}

// TestSnapshotIsCanonical: a snapshot decodes as an hSiteState, and a
// site restored from it snapshots to the same bytes (so the order it
// writes in is the canonical one, whatever order its maps iterate in).
func TestSnapshotIsCanonical(t *testing.T) {
	for _, s := range seededSites(t, 120) {
		data, err := s.snapshotState()
		if err != nil {
			t.Fatal(err)
		}
		var st hSiteState
		if err := wire.Unmarshal(data, &st); err != nil {
			t.Fatalf("site %d: snapshot does not decode as hSiteState: %v", s.id, err)
		}
		groups := 0
		for _, r := range st.Rules {
			groups += len(r.Groups)
		}
		if len(st.Frag) == 0 || groups < 2 {
			t.Fatalf("site %d: seed too small to prove an order (%d tuples, %d groups)", s.id, len(st.Frag), groups)
		}
		twin := newSite(s.id, s.schema, nil)
		if err := twin.restoreState(data); err != nil {
			t.Fatal(err)
		}
		if got, err := twin.snapshotState(); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("site %d: restored site snapshots differently (err %v)", s.id, err)
		}
	}
}

// FuzzSnapshot drives arbitrary bytes through the checkpoint decoder: as
// an hSiteState they must never panic, never size anything beyond the
// input, and re-encode to themselves when accepted; as a site's state
// they must restore or be refused with an error, and a restored site's
// snapshot must itself restore to the same snapshot.
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
	schema := sites[0].schema
	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.FuzzDecode[hSiteState](t, data)
		s := newSite(0, schema, nil)
		if s.restoreState(data) != nil {
			return
		}
		first, err := s.snapshotState()
		if err != nil {
			t.Fatalf("snapshot of a restored site: %v", err)
		}
		twin := newSite(0, schema, nil)
		if err := twin.restoreState(first); err != nil {
			t.Fatalf("a restored site's snapshot does not restore: %v", err)
		}
		if second, err := twin.snapshotState(); err != nil || !bytes.Equal(first, second) {
			t.Fatalf("snapshot is not a fixed point of restore (err %v)", err)
		}
	})
}
