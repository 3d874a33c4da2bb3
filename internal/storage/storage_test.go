package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/seglog"
	"repro/internal/xerr"
)

func key64(id uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], id)
	return b[:]
}

// dump collects a store's full contents in iteration order.
func dump(t *testing.T, s Store) []string {
	t.Helper()
	var out []string
	if err := s.Each(func(k, v []byte) bool {
		out = append(out, fmt.Sprintf("%x=%x", k, v))
		return true
	}); err != nil {
		t.Fatalf("Each: %v", err)
	}
	return out
}

func equalDump(t *testing.T, a, b Store, ctx string) {
	t.Helper()
	da, db := dump(t, a), dump(t, b)
	if len(da) != len(db) {
		t.Fatalf("%s: %d vs %d records", ctx, len(da), len(db))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("%s: record %d: %s vs %s", ctx, i, da[i], db[i])
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("%s: Len %d vs %d", ctx, a.Len(), b.Len())
	}
}

// TestDiskDifferential drives a DiskStore and a MemStore through the
// same seeded random op sequence — puts, overwrites, deletes, point
// gets, interleaved flushes and full close/reopen cycles — under a
// cache budget tiny enough to force constant fault/evict churn, and
// asserts the two stores agree at every checkpoint.
func TestDiskDifferential(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if !testing.Short() {
		for s := int64(7); s <= 20; s++ {
			seeds = append(seeds, s)
		}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "diff.dat")
			opt := DiskOptions{
				PageFor:     Uint64Pager(4), // 16 keys per page
				CacheBudget: 2 << 10,        // a handful of pages
				Monotone:    true,
				Kind:        'D',
			}
			disk, err := OpenDisk(path, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer disk.Close()
			mem := NewMem()
			rng := rand.New(rand.NewSource(seed))
			keyspace := uint64(400)
			for step := 0; step < 1500; step++ {
				id := rng.Uint64() % keyspace
				k := key64(id)
				switch op := rng.Intn(10); {
				case op < 5: // put / overwrite
					v := make([]byte, 1+rng.Intn(40))
					rng.Read(v)
					if err := disk.Put(k, v); err != nil {
						t.Fatal(err)
					}
					mem.Put(k, v)
				case op < 8: // delete
					if err := disk.Delete(k); err != nil {
						t.Fatal(err)
					}
					mem.Delete(k)
				default: // point get
					dv, dok, err := disk.Get(k)
					if err != nil {
						t.Fatal(err)
					}
					mv, mok, _ := mem.Get(k)
					if dok != mok || !bytes.Equal(dv, mv) {
						t.Fatalf("step %d: Get(%x) = %x,%v want %x,%v", step, k, dv, dok, mv, mok)
					}
				}
				if step%137 == 0 {
					if err := disk.Flush(); err != nil {
						t.Fatal(err)
					}
					equalDump(t, disk, mem, fmt.Sprintf("step %d", step))
				}
				if step%457 == 456 { // close/reopen survives everything so far
					if err := disk.Close(); err != nil {
						t.Fatal(err)
					}
					disk, err = OpenDisk(path, opt)
					if err != nil {
						t.Fatal(err)
					}
					equalDump(t, disk, mem, fmt.Sprintf("reopen @%d", step))
				}
			}
			// Range scans agree on random windows.
			for i := 0; i < 20; i++ {
				a, b := rng.Uint64()%keyspace, rng.Uint64()%keyspace
				if a > b {
					a, b = b, a
				}
				lo, hi := key64(a), key64(b)
				var dr, mr []string
				disk.EachRange(lo, hi, func(k, v []byte) bool {
					dr = append(dr, fmt.Sprintf("%x=%x", k, v))
					return true
				})
				mem.EachRange(lo, hi, func(k, v []byte) bool {
					mr = append(mr, fmt.Sprintf("%x=%x", k, v))
					return true
				})
				if len(dr) != len(mr) {
					t.Fatalf("range [%d,%d): %d vs %d", a, b, len(dr), len(mr))
				}
				for j := range dr {
					if dr[j] != mr[j] {
						t.Fatalf("range [%d,%d) record %d: %s vs %s", a, b, j, dr[j], mr[j])
					}
				}
			}
			st := disk.Stats()
			if st.Evictions == 0 {
				t.Fatalf("budget %d never forced an eviction (resident %d)", opt.CacheBudget, st.ResidentBytes)
			}
			if st.Faults == 0 {
				t.Fatalf("no page ever faulted from disk")
			}
		})
	}
}

// TestDiskBudgetRespected checks the cache stays at or under its byte
// budget once writes are flushed (dirty pages may pin it over
// transiently, but a flushed store must fit).
func TestDiskBudgetRespected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "budget.dat")
	budget := int64(4 << 10)
	s, err := OpenDisk(path, DiskOptions{PageFor: Uint64Pager(3), CacheBudget: budget, Monotone: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := bytes.Repeat([]byte{0xab}, 64)
	for i := uint64(0); i < 2000; i++ {
		if err := s.Put(key64(i), val); err != nil {
			t.Fatal(err)
		}
		if i%64 == 63 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.ResidentBytes > budget {
				t.Fatalf("after flush @%d: resident %d > budget %d", i, st.ResidentBytes, budget)
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ResidentBytes > budget {
		t.Fatalf("resident %d > budget %d", st.ResidentBytes, budget)
	}
	if st.DiskBytes <= budget {
		t.Fatalf("data (%d disk bytes) should far exceed the %d budget", st.DiskBytes, budget)
	}
}

// TestDiskTornTail crashes mid-append (simulated by truncating into the
// final record) and checks reopen keeps every record before the tear.
func TestDiskTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.dat")
	opt := DiskOptions{PageFor: Uint64Pager(2)}
	s, err := OpenDisk(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		s.Put(key64(i), []byte{byte(i)})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	preSize := s.Stats().DiskBytes
	// Second flush appends more pages; tear into its last record.
	for i := uint64(100); i < 108; i++ {
		s.Put(key64(i), []byte{byte(i)})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	s, err = OpenDisk(path, opt)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer s.Close()
	if got := s.Stats().DiskBytes; got < preSize {
		t.Fatalf("truncated past the first flush: %d < %d", got, preSize)
	}
	for i := uint64(0); i < 8; i++ {
		if _, ok, _ := s.Get(key64(i)); !ok {
			t.Fatalf("key %d lost after torn-tail recovery", i)
		}
	}
	// A tail whose length field claims 4 GiB is the same torn record,
	// dropped without being allocated.
	size := s.Stats().DiskBytes
	s.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 'x'})
	f.Close()
	if s, err = OpenDisk(path, opt); err != nil {
		t.Fatalf("reopen after a damaged length field: %v", err)
	}
	defer s.Close()
	if got := s.Stats().DiskBytes; got != size {
		t.Fatalf("damaged tail not truncated away: %d bytes, want %d", got, size)
	}
}

// TestDiskMidFileCorruption flips a payload byte in a non-trailing
// record and checks open fails loudly with ErrStoreCorrupt rather than
// silently dropping data.
func TestDiskMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.dat")
	opt := DiskOptions{PageFor: Uint64Pager(2)}
	s, err := OpenDisk(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		s.Put(key64(i), bytes.Repeat([]byte{byte(i)}, 16))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	raw[seglog.HeaderLen+seglog.FrameOverhead+2] ^= 0xff // first record's payload
	os.WriteFile(path, raw, 0o644)
	if _, err := OpenDisk(path, opt); !errors.Is(err, xerr.ErrStoreCorrupt) {
		t.Fatalf("open on mid-file damage: %v, want ErrStoreCorrupt", err)
	}
}

// TestDiskBadHeader rejects wrong magic and wrong version.
func TestDiskBadHeader(t *testing.T) {
	opt := DiskOptions{PageFor: Uint64Pager(2), Kind: 'T'}
	for name, hdr := range map[string][]byte{
		"magic":   []byte("XSTR\x01T"),
		"version": []byte("RSTR\x63T"),
		"short":   []byte("RS"),
		// The store stamps what it holds into the header: groups.dat
		// opened as the tuple store is refused, not misread.
		"kind": []byte("RSTR\x01G"),
	} {
		path := filepath.Join(t.TempDir(), name+".dat")
		os.WriteFile(path, hdr, 0o644)
		if _, err := OpenDisk(path, opt); !errors.Is(err, xerr.ErrStoreCorrupt) {
			t.Fatalf("%s: open = %v, want ErrStoreCorrupt", name, err)
		}
	}
}

// TestDiskCompaction overwrites a small keyspace until dead bytes
// dominate, then checks compaction fires, shrinks the file, and loses
// nothing across a reopen.
func TestDiskCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.dat")
	opt := DiskOptions{PageFor: Uint64Pager(3), CacheBudget: 1 << 10}
	s, err := OpenDisk(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{0x5a}, 200)
	for round := 0; round < 200; round++ {
		for i := uint64(0); i < 64; i++ {
			s.Put(key64(i), val)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("200 overwrite rounds never compacted (disk %d bytes)", st.DiskBytes)
	}
	// 200 full-overwrite rounds appended ~200x the live set; compaction
	// must have reclaimed the bulk of it.
	if st.DiskBytes*4 > int64(st.FlushedBytes) {
		t.Fatalf("compaction reclaimed too little: disk %d of %d flushed bytes", st.DiskBytes, st.FlushedBytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenDisk(path, opt)
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer s.Close()
	if s.Len() != 64 {
		t.Fatalf("Len after compaction+reopen = %d, want 64", s.Len())
	}
	for i := uint64(0); i < 64; i++ {
		v, ok, err := s.Get(key64(i))
		if err != nil || !ok || !bytes.Equal(v, val) {
			t.Fatalf("key %d after compaction: %x,%v,%v", i, v, ok, err)
		}
	}
}

// TestDiskTombstoneReopen deletes a whole page's keys, flushes (writing
// a tombstone) and checks the page stays gone across reopen.
func TestDiskTombstoneReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tomb.dat")
	opt := DiskOptions{PageFor: Uint64Pager(2)} // 4 keys per page
	s, err := OpenDisk(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 12; i++ {
		s.Put(key64(i), []byte{byte(i)})
	}
	s.Flush()
	for i := uint64(4); i < 8; i++ { // page 1 entirely
		s.Delete(key64(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenDisk(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	for i := uint64(4); i < 8; i++ {
		if _, ok, _ := s.Get(key64(i)); ok {
			t.Fatalf("deleted key %d resurrected by reopen", i)
		}
	}
}

// TestDiskRangeFaultsBounded checks a Monotone pager's EachRange only
// faults pages that can intersect the range.
func TestDiskRangeFaultsBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "range.dat")
	opt := DiskOptions{PageFor: Uint64Pager(2), CacheBudget: 1, Monotone: true}
	s, err := OpenDisk(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := uint64(0); i < 400; i++ {
		s.Put(key64(i), []byte{byte(i)})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Faults
	var n int
	s.EachRange(key64(100), key64(108), func(k, v []byte) bool { n++; return true })
	if n != 8 {
		t.Fatalf("range [100,108) visited %d keys, want 8", n)
	}
	// 8 keys at 4 keys/page touch at most 3 pages.
	if faults := s.Stats().Faults - before; faults > 3 {
		t.Fatalf("narrow range faulted %d pages, want <= 3", faults)
	}
}

// TestMemStoreBasics pins the oracle itself: ownership, ordering, Len.
func TestMemStoreBasics(t *testing.T) {
	s := NewMem()
	v := []byte{1, 2, 3}
	s.Put([]byte("b"), v)
	v[0] = 99 // Put must have copied
	got, ok, _ := s.Get([]byte("b"))
	if !ok || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Put aliased caller's value: %x", got)
	}
	s.Put([]byte("a"), []byte{4})
	s.Put([]byte("c"), []byte{5})
	var order []string
	s.Each(func(k, _ []byte) bool { order = append(order, string(k)); return true })
	if fmt.Sprint(order) != "[a b c]" {
		t.Fatalf("iteration order %v", order)
	}
	s.Delete([]byte("b"))
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}
