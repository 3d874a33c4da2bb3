package horizontal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/centralized"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
	"repro/internal/workload"
)

// seededSites builds a small in-process system and returns its sites,
// holding fragments, rules and class indexes of more than one entry.
func seededSites(t testing.TB, rows int) []*site {
	t.Helper()
	gen := workload.NewSized(workload.TPCH, 7, 800)
	_, hs := localSystem(t, gen.Relation(rows), partition.HashHorizontal("c_name", 3), gen.Rules(8), Options{})
	sites := make([]*site, len(hs))
	for i, h := range hs {
		sites[i] = h.st
	}
	return sites
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

// snapshotGolden is the SHA-256 of every site's snapshot after each step
// of TestSnapshotGolden's fixture. MD5 coding only changes what travels,
// so it is one digest for both. The snapshot layout is a checkpoint format
// (checkpoint.FormatVersion): an index change that moves a byte of it
// moves this digest.
const snapshotGolden = "ead4aaed8e1d370299fe7297ded5909e98da80495076de834a2adfb59ec26a21"

// TestSnapshotGolden pins the bytes of the horizontal checkpoint state
// across a history that exercises every class-index edge: seeding,
// batches with deletions that empty classes, a class emptied and refilled
// within one batch (a tuple deleted and a twin under a new id inserted),
// rules seeded and dropped between batches, and MD5 coding on and off.
func TestSnapshotGolden(t *testing.T) {
	for _, disable := range []bool{false, true} {
		gen := workload.NewSized(workload.TPCH, 11, 1200)
		rules := gen.Rules(30)
		rel := gen.Relation(400)
		sys, sites := localSystem(t, rel, partition.HashHorizontal("c_name", 4), rules[:22], Options{DisableMD5: disable})
		mirror := rel.Clone()
		h := sha256.New()
		record := func(step string) {
			t.Helper()
			for _, s := range sites {
				data, err := s.Snapshot()
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				h.Write(data)
			}
		}
		apply := func(step string, batch relation.UpdateList) {
			t.Helper()
			if _, err := sys.Apply(batch); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			if err := batch.Normalize().Apply(mirror); err != nil {
				t.Fatal(err)
			}
			record(step)
		}
		// twins deletes n held tuples and inserts each one's values again
		// under a fresh id in the same batch.
		nextID := relation.TupleID(1 << 30)
		twins := func(n int) relation.UpdateList {
			var batch relation.UpdateList
			for i, tp := range mirror.Tuples() {
				if i%7 != 3 {
					continue
				}
				if len(batch) >= 2*n {
					break
				}
				nextID++
				batch = append(batch, relation.Update{Kind: relation.Delete, Tuple: tp},
					relation.Update{Kind: relation.Insert, Tuple: relation.Tuple{ID: nextID, Values: tp.Values}})
			}
			return batch
		}
		record("seed")
		for round := 0; round < 6; round++ {
			apply("mixed", gen.Updates(mirror, 40, 0.3))
			apply("twins", twins(8))
			switch round {
			case 1:
				if _, err := sys.AddRules(rules[22:26]); err != nil {
					t.Fatal(err)
				}
				record("add")
			case 2:
				if _, err := sys.RemoveRules([]string{rules[3].ID, rules[23].ID}); err != nil {
					t.Fatal(err)
				}
				record("remove")
			case 3:
				if _, err := sys.AddRules(rules[26:]); err != nil {
					t.Fatal(err)
				}
				record("add")
			}
		}
		apply("drain", gen.Updates(mirror, 120, 0))
		if want := centralized.Detect(mirror, sys.Rules()); !sys.Violations().Equal(want) {
			t.Fatalf("MD5 off %v: V diverged from the centralized oracle", disable)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != snapshotGolden {
			t.Errorf("MD5 %v: snapshot digest %s, want %s", !disable, got, snapshotGolden)
		}
	}
}
