package seglog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzRecover plants arbitrary bytes as the last segment, and as the
// newest snapshot, of a small valid directory and recovers it: no panic,
// nothing allocated past the size of the file, and either the Corrupt
// sentinel or the state that was there — the snapshot plus a prefix of
// what was appended to the segments before the planted one, then whatever
// framed records the bytes themselves hold.
func FuzzRecover(f *testing.F) {
	// A real checkpoint segment and a real journal segment (other
	// formats: refused at the header), this format's header before the
	// frame whose length field claims 4 GiB, and a well-formed segment.
	f.Add([]byte("RCKP\x06\x02\x00\x00\x00\x12aN\x8b\x9a\x02\x0dh.settleGroup\x02\x01\x02\x00\x00\x00\x0b\x00\x01\xc0\xe7\x03\x08chk.mark\x00"))
	f.Add([]byte("RJRN\x02\x02\x00\x00\x00\x0e\xbd\xf0\x98(I\x01\x01\x01\x00\x0e\x01\x01a\x00\x00\x01\x04\x00\x00\x00\x00\x066\xad\xc4\x86A\x01c\x01\x06\x00"))
	f.Add(append([]byte("TLOG\x03\x02"), hugeFrame...))
	var seg bytes.Buffer
	testFormat.WriteHeader(&seg, KindSegment)
	WriteFramed(&seg, []byte("7"))
	f.Add(seg.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, plant := range []string{segFile(2), snapFile(2)} {
			dir := t.TempDir()
			m := openModel(t, dir)
			m.compactSync()
			m.call(1, 3)
			m.log.StopAt(StepRenamed) // both epochs stay on disk
			m.compact()
			m.call(4, 4)
			m.log.Abandon(StepRenamed)
			if err := os.WriteFile(filepath.Join(dir, plant), data, 0o644); err != nil {
				t.Fatal(err)
			}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			log, err := Open(dir, testFormat)
			if err != nil {
				t.Fatal(err)
			}
			epoch, snap, recs, err := log.Recover()
			log.Close()
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+8*uint64(len(data)) {
				t.Fatalf("recovery over %d planted bytes allocated %d", len(data), grew)
			}
			if err != nil {
				if !errors.Is(err, errTestCorrupt) || epoch != 0 || snap != nil || recs != nil {
					t.Fatalf("Recover = epoch %d, %d+%d records, err %v; want nothing with the sentinel", epoch, len(snap), len(recs), err)
				}
				continue
			}
			// What was appended, in order, as a loaded chain replays it
			// from either snapshot.
			want := [][]byte{[]byte("1"), []byte("2"), []byte("3"), []byte("4")}
			switch {
			case plant == snapFile(2) && epoch == 2:
				// The planted bytes are a valid snapshot of this format.
				want = want[3:]
			case plant == snapFile(2):
				if len(snap) != 1 || len(snap[0]) != 0 {
					t.Fatalf("fell back to snapshot %d holding %q, want the empty first snapshot", epoch, snap)
				}
			default:
				// The planted segment replaced record 4 with its own.
				want = want[:3]
				if epoch == 2 {
					want = nil
				}
				if len(recs) < len(want) {
					t.Fatalf("recovered %q from snapshot %d, want at least %q", recs, epoch, want)
				}
				recs = recs[:len(want)]
			}
			if len(recs) != len(want) {
				t.Fatalf("plant %s: recovered %q from snapshot %d, want %q", plant, recs, epoch, want)
			}
			for i := range want {
				if !bytes.Equal(recs[i], want[i]) {
					t.Fatalf("plant %s: recovered %q from snapshot %d, want %q", plant, recs, epoch, want)
				}
			}
		}
	})
}
