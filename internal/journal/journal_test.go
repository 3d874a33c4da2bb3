package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/seglog"
	"repro/internal/wire"
	"repro/internal/xerr"
)

// The chain itself — header, frames, torn tails, crash points, fallback —
// is tested once, in internal/seglog. What is tested here is what the
// journal adds: its records, its ledger grammar, and that seglog's rule
// surfaces as xerr.ErrJournalCorrupt.

const headerLen = seglog.HeaderLen

func testBase(round uint64) *Base {
	return &Base{
		SessionID:   []byte{1, 2, 3, 4, 5, 6, 7, 8},
		Kind:        "horizontal",
		Sites:       3,
		SchemaName:  "R",
		SchemaAttrs: []string{"a", "b"},
		Round:       round,
		Seqs:        []uint64{10, 11, 12},
		Cursor:      4,
		Rules:       []cfd.CFD{{ID: "r1", LHS: []string{"a"}, RHS: "b", LHSPattern: []string{"_"}, RHSPattern: "_"}},
		Tuples: []relation.Tuple{
			{ID: 1, Values: []string{"x", "y"}},
			{ID: 2, Values: []string{"x", "z"}},
		},
	}
}

func testIntent(round uint64) *Intent {
	return &Intent{
		Round: round,
		Op:    OpBatch,
		Updates: relation.UpdateList{
			{Kind: relation.Insert, Tuple: relation.Tuple{ID: relation.TupleID(100 + round), Values: []string{"p", "q"}}},
		},
		Seqs:   []uint64{10 + round, 11 + round, 12 + round},
		Cursor: 4 + round,
	}
}

func testApplied(round uint64) *Applied {
	return &Applied{Round: round, Fingerprint: round * 7, Seqs: []uint64{20, 21, 22}, Cursor: 9}
}

// writeRounds populates dir with a base at round 0 plus n applied
// rounds (and optionally one dangling intent) through the public API.
func writeRounds(t *testing.T, dir string, n int, dangling bool) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Begin(testBase(0)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := st.Intent(testIntent(uint64(i))); err != nil {
			t.Fatal(err)
		}
		if err := st.Applied(testApplied(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if dangling {
		if err := st.Intent(testIntent(uint64(n + 1))); err != nil {
			t.Fatal(err)
		}
	}
}

func recoverDir(t *testing.T, dir string) (*State, error) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	return st.Recover()
}

func snapFile(dir string, epoch int) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.ckpt", epoch))
}

func segFile(dir string, epoch int) string {
	return filepath.Join(dir, fmt.Sprintf("delta-%016x.log", epoch))
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func flipByte(t *testing.T, path string, offset int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[offset] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeRounds(t, dir, 3, true)

	st, err := recoverDir(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("recovered nil state")
	}
	if st.Base.Round != 0 || len(st.Intents) != 4 || len(st.Applied) != 3 {
		t.Fatalf("recovered base round %d, %d intents, %d applied", st.Base.Round, len(st.Intents), len(st.Applied))
	}
	if p := st.Pending(); p == nil || p.Round != 4 {
		t.Fatalf("pending = %+v, want round 4", p)
	}
	if st.Rounds() != 3 {
		t.Fatalf("Rounds() = %d, want 3", st.Rounds())
	}
	if got := st.Base.Tuples[1].Values[1]; got != "z" {
		t.Fatalf("base tuple values lost: %q", got)
	}
	if st.Applied[2].Fingerprint != 21 {
		t.Fatalf("applied fingerprint = %d, want 21", st.Applied[2].Fingerprint)
	}
}

func TestEmptyDirRecoversClean(t *testing.T) {
	st, err := recoverDir(t, t.TempDir())
	if err != nil || st != nil {
		t.Fatalf("empty dir: state %v, err %v", st, err)
	}
}

func TestCleanBoundaryHasNoPending(t *testing.T) {
	dir := t.TempDir()
	writeRounds(t, dir, 2, false)
	st, err := recoverDir(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending() != nil {
		t.Fatalf("clean boundary recovered a pending intent: %+v", st.Pending())
	}
	if st.Rounds() != 2 {
		t.Fatalf("Rounds() = %d, want 2", st.Rounds())
	}
}

func TestCompactionReplacesEpoch(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Begin(testBase(0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Intent(testIntent(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Applied(&Applied{Round: 1, Seqs: []uint64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(testBase(1)); err != nil {
		t.Fatal(err)
	}
	// The new epoch can still take appends, and only its files remain
	// once the compactor is through (Close waits for it).
	if err := st.Intent(testIntent(2)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	want := []string{filepath.Base(segFile(dir, 2)), filepath.Base(snapFile(dir, 2))}
	if got := dirNames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("directory after compaction = %v, want %v", got, want)
	}
	rec, err := recoverDir(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Base.Round != 1 || len(rec.Applied) != 0 {
		t.Fatalf("compacted base round %d with %d applied, want 1 with 0", rec.Base.Round, len(rec.Applied))
	}
	if p := rec.Pending(); p == nil || p.Round != 2 {
		t.Fatalf("pending after compaction = %+v, want round 2", p)
	}
}

// TestCorruptJournals: seglog's one corruption policy as the journal's
// caller sees it. Every damage shape beyond a torn trailing record of the
// last segment surfaces xerr.ErrJournalCorrupt — unless an older snapshot
// still has its whole chain beside it, which reconstructs the same
// rounds. The directory holds base 0, rounds 1-2 in segment 1, a
// compaction at round 2 killed after its rename (so both epochs are on
// disk), and round 3 applied plus a dangling intent 4 in segment 2.
func TestCorruptJournals(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Begin(testBase(0)); err != nil {
			t.Fatal(err)
		}
		round := func(r uint64) {
			if err := st.Intent(testIntent(r)); err != nil {
				t.Fatal(err)
			}
			if err := st.Applied(testApplied(r)); err != nil {
				t.Fatal(err)
			}
		}
		round(1)
		round(2)
		st.StopAt(seglog.StepRenamed)
		if err := st.Compact(testBase(2)); err != nil {
			t.Fatal(err)
		}
		round(3)
		if err := st.Intent(testIntent(4)); err != nil {
			t.Fatal(err)
		}
		st.Abandon(seglog.StepRenamed)
		return dir
	}
	// rounds is what every successful recovery must agree on, whichever
	// snapshot it loaded: 3 applied rounds, intent 4 dangling.
	rounds := func(wantBase uint64, wantPending bool) func(t *testing.T, st *State) {
		return func(t *testing.T, st *State) {
			pending := st.Pending() != nil
			if st.Base.Round != wantBase || st.Rounds() != 3 || pending != wantPending || (pending && st.Pending().Round != 4) {
				t.Fatalf("recovered base %d, rounds %d, pending %+v; want base %d, 3 rounds, pending %v",
					st.Base.Round, st.Rounds(), st.Pending(), wantBase, wantPending)
			}
		}
	}
	cases := []struct {
		name   string
		mangle func(t *testing.T, dir string)
		// check runs on the recovered state; nil means ErrJournalCorrupt.
		check func(t *testing.T, st *State)
	}{
		{
			name:   "intact",
			mangle: func(*testing.T, string) {},
			check:  rounds(2, true),
		},
		{
			// The dangling intent was the torn record: the valid prefix is
			// the 3 applied rounds.
			name: "torn-trailing-record",
			mangle: func(t *testing.T, dir string) {
				fi, err := os.Stat(segFile(dir, 2))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(segFile(dir, 2), fi.Size()-3); err != nil {
					t.Fatal(err)
				}
			},
			check: rounds(2, false),
		},
		{
			// A mid-file CRC failure in the last segment spoils every
			// chain that ends in it.
			name:   "crc-flip-mid-file",
			mangle: func(t *testing.T, dir string) { flipByte(t, segFile(dir, 2), headerLen+8+5) },
		},
		{
			name: "version-bump",
			mangle: func(t *testing.T, dir string) {
				for _, path := range []string{snapFile(dir, 1), snapFile(dir, 2)} {
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					data[4] = FormatVersion + 1
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
		{
			name:   "bad-magic",
			mangle: func(t *testing.T, dir string) { flipByte(t, segFile(dir, 2), 0) },
		},
		{
			name: "truncated-header",
			mangle: func(t *testing.T, dir string) {
				for _, path := range []string{snapFile(dir, 1), snapFile(dir, 2)} {
					if err := os.Truncate(path, 3); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
		{
			// The older snapshot is loaded only with every segment from
			// its epoch to the newest, so it cannot resume the driver
			// behind the cluster: same rounds, same pending intent.
			name:   "newest-snapshot-corrupt-chain-intact",
			mangle: func(t *testing.T, dir string) { flipByte(t, snapFile(dir, 2), headerLen+8+5) },
			check:  rounds(0, true),
		},
		{
			name: "newest-snapshot-corrupt-segment-missing",
			mangle: func(t *testing.T, dir string) {
				flipByte(t, snapFile(dir, 2), headerLen+8+5)
				if err := os.Remove(segFile(dir, 1)); err != nil {
					t.Fatal(err)
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := build(t)
			tc.mangle(t, dir)
			st, err := recoverDir(t, dir)
			if tc.check == nil {
				if !errors.Is(err, xerr.ErrJournalCorrupt) || st != nil {
					t.Fatalf("state %v, err %v; want nothing and ErrJournalCorrupt", st, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, st)
		})
	}
}

// TestCompactionCrashPoints kills a journal compaction at each of its
// steps, with a round applied and an intent dangling after the rotation,
// and recovers on the same directory: whichever snapshot the recovery
// loads, the rounds after the uncrashed twin's base, the pending intent
// and the folded mirror must be the twin's.
func TestCompactionCrashPoints(t *testing.T) {
	run := func(t *testing.T, stopAt seglog.Step) *State {
		dir := t.TempDir()
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Begin(testBase(0)); err != nil {
			t.Fatal(err)
		}
		base := testBase(0)
		round := func(r uint64) {
			it := testIntent(r)
			if err := st.Intent(it); err != nil {
				t.Fatal(err)
			}
			if err := st.Applied(testApplied(r)); err != nil {
				t.Fatal(err)
			}
			base.Round = r
			base.Tuples = append(base.Tuples, it.Updates[0].Tuple)
		}
		round(1)
		round(2)
		st.StopAt(stopAt)
		if err := st.Compact(base); err != nil {
			t.Fatal(err)
		}
		round(3)
		if err := st.Intent(testIntent(4)); err != nil {
			t.Fatal(err)
		}
		st.Abandon(stopAt)
		rec, err := recoverDir(t, dir)
		if err != nil || rec == nil {
			t.Fatalf("Recover after a kill at step %d: state %v, err %v", stopAt, rec, err)
		}
		return rec
	}
	// folded is what a resume reads off a State: the rounds applied, the
	// mirror they fold to, and the records from round after on.
	type folded struct {
		Rounds  uint64
		Tuples  []relation.Tuple
		Intents []Intent
		Applied []Applied
		Pending *Intent
	}
	fold := func(st *State, after uint64) folded {
		f := folded{Rounds: st.Rounds(), Tuples: st.Base.Tuples, Pending: st.Pending()}
		for i, it := range st.Intents {
			if i < len(st.Applied) {
				f.Tuples = append(f.Tuples, it.Updates[0].Tuple)
			}
			if it.Round > after {
				f.Intents = append(f.Intents, it)
			}
		}
		for _, ap := range st.Applied {
			if ap.Round > after {
				f.Applied = append(f.Applied, ap)
			}
		}
		return f
	}
	twin := run(t, 0)
	if twin.Base.Round != 2 || len(twin.Applied) != 1 {
		t.Fatalf("uncrashed twin recovered base round %d with %d applied, want 2 and 1", twin.Base.Round, len(twin.Applied))
	}
	want := fold(twin, twin.Base.Round)
	for step, wantBase := range map[seglog.Step]uint64{
		seglog.StepRotated: 0, seglog.StepTempWritten: 0, seglog.StepRenamed: 2, seglog.StepDone: 2,
	} {
		rec := run(t, step)
		if rec.Base.Round != wantBase {
			t.Fatalf("step %d: recovered from base round %d, want %d", step, rec.Base.Round, wantBase)
		}
		if got := fold(rec, twin.Base.Round); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: recovered %+v, uncrashed twin %+v", step, got, want)
		}
	}
}

// TestVersion1DirectoryIsCorrupt: a directory written by format version
// 1 (one journal-<epoch>.wal per epoch) is refused, not taken for an
// empty one, and Reset clears it.
func TestVersion1DirectoryIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "journal-0000000000000003.wal")
	if err := os.WriteFile(old, []byte("RJRN\x01\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rec, err := st.Recover(); !errors.Is(err, xerr.ErrJournalCorrupt) || rec != nil {
		t.Fatalf("Recover over a v1 directory = %v, %v; want ErrJournalCorrupt", rec, err)
	}
	if err := st.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := dirNames(t, dir); len(got) != 0 {
		t.Fatalf("directory after Reset = %v, want empty", got)
	}
	if rec, err := st.Recover(); rec != nil || err != nil {
		t.Fatalf("Recover after Reset = %v, %v; want a clean empty directory", rec, err)
	}
}

// TestInterleaveViolationsAreCorrupt pins the strict ledger grammar:
// records out of base → (intent, applied)* order fail validation even
// when every frame's CRC is intact.
func TestInterleaveViolationsAreCorrupt(t *testing.T) {
	enc := func(tag byte, rec any) []byte {
		t.Helper()
		payload, err := wire.Append([]byte{tag}, rec)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	base := func() []byte { return enc(0, testBase(0))[1:] }
	intent := func(r uint64) []byte { return enc(tagIntent, testIntent(r)) }
	applied := func(r uint64) []byte { return enc(tagApplied, &Applied{Round: r}) }
	// writeRaw lays one epoch down by hand: any records as the snapshot,
	// any records as its segment.
	writeRaw := func(t *testing.T, dir string, snap, seg [][]byte) {
		t.Helper()
		for path, file := range map[string]struct {
			kind byte
			recs [][]byte
		}{snapFile(dir, 1): {seglog.KindSnapshot, snap}, segFile(dir, 1): {seglog.KindSegment, seg}} {
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := format.WriteHeader(f, file.kind); err != nil {
				t.Fatal(err)
			}
			for _, rec := range file.recs {
				if err := seglog.WriteFramed(f, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cases := []struct {
		name      string
		snap, seg [][]byte
	}{
		{"intent-before-base", [][]byte{intent(1)}, nil},
		{"double-base", [][]byte{base(), base()}, nil},
		{"base-in-a-segment", [][]byte{base()}, [][]byte{base()}},
		{"applied-without-intent", [][]byte{base()}, [][]byte{applied(1)}},
		{"two-open-intents", [][]byte{base()}, [][]byte{intent(1), intent(2)}},
		{"round-gap", [][]byte{base()}, [][]byte{intent(5)}},
		{"applied-wrong-round", [][]byte{base()}, [][]byte{intent(1), applied(2)}},
		{"empty-file-no-base", nil, nil},
		{"empty-record", [][]byte{base()}, [][]byte{{}}},
		{"undecodable-intent", [][]byte{base()}, [][]byte{{tagIntent, 0xff}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeRaw(t, dir, tc.snap, tc.seg)
			if st, err := recoverDir(t, dir); !errors.Is(err, xerr.ErrJournalCorrupt) || st != nil {
				t.Fatalf("state %v, err %v; want nothing and ErrJournalCorrupt", st, err)
			}
		})
	}
}

// TestAppendContinuesAfterRecover pins that a recovered journal keeps
// taking appends at the right position (the torn tail is truncated
// before the file is reopened for append).
func TestAppendContinuesAfterRecover(t *testing.T) {
	dir := t.TempDir()
	writeRounds(t, dir, 1, true)
	// Tear the dangling intent.
	path := segFile(dir, 1)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Pending() != nil {
		t.Fatalf("torn intent survived: %+v", rec.Pending())
	}
	if err := st.Intent(testIntent(2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Applied(&Applied{Round: 2, Seqs: []uint64{30, 31, 32}}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	rec2, err := recoverDir(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Rounds() != 2 || rec2.Pending() != nil {
		t.Fatalf("after re-append: rounds %d, pending %v", rec2.Rounds(), rec2.Pending())
	}
}

func TestBeginRejectsNonEmpty(t *testing.T) {
	dir := t.TempDir()
	writeRounds(t, dir, 1, false)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := st.Begin(testBase(0)); err == nil {
		t.Fatal("Begin on a recovered journal succeeded")
	}
}

func TestResetStartsEmpty(t *testing.T) {
	dir := t.TempDir()
	writeRounds(t, dir, 2, true)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := st.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := st.Begin(testBase(0)); err != nil {
		t.Fatalf("Begin after Reset: %v", err)
	}
	rec, err := recoverDir(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Rounds() != 0 || len(rec.Intents) != 0 {
		t.Fatalf("after reset+begin: %+v", rec)
	}
}
