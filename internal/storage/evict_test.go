package storage

import (
	"math/rand"
	"path/filepath"
	"testing"
)

// lruModel is the textbook policy DiskStore's eviction list must be
// indistinguishable from: one recency list of every cached page, front =
// most recently used, victims taken from the tail skipping dirty pages.
// It is quadratic when many pages are pinned — which is why the store
// does not implement it this way — but it defines the victim order.
type lruModel struct {
	order []uint32 // front (index 0) = most recently used
	dirty map[uint32]bool
	size  map[uint32]int64 // last size seen cached; a page cannot change while it is not
}

func (m *lruModel) touch(no uint32) {
	m.drop(no)
	m.order = append([]uint32{no}, m.order...)
}

func (m *lruModel) drop(no uint32) {
	for i, p := range m.order {
		if p == no {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
}

// evict drops clean pages from the tail until the model's pages fit the
// store's budget, taking page sizes from the store's own accounting.
func (m *lruModel) evict(s *DiskStore) (evicted int) {
	var resident int64
	for _, no := range m.order {
		if pg, ok := s.cache[no]; ok {
			m.size[no] = pg.size
		}
		resident += m.size[no] + pageOverhead
	}
	for i := len(m.order) - 1; i >= 0 && resident > s.opt.CacheBudget; i-- {
		if no := m.order[i]; !m.dirty[no] {
			m.order = append(m.order[:i], m.order[i+1:]...)
			resident -= m.size[no] + pageOverhead
			evicted++
		}
	}
	return evicted
}

// TestDiskVictimOrderIsLRU drives random gets, puts, deletes and flushes
// over a small budget and checks, after every operation, that the cached
// page set and the eviction count are exactly those of lruModel: taking
// pinned pages off the eviction list must not change which page goes.
func TestDiskVictimOrderIsLRU(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, err := OpenDisk(filepath.Join(t.TempDir(), "lru.dat"),
			DiskOptions{PageFor: Uint64Pager(2), CacheBudget: 2 << 10})
		if err != nil {
			t.Fatal(err)
		}
		m := &lruModel{dirty: map[uint32]bool{}, size: map[uint32]int64{}}
		var evictions uint64
		for op := 0; op < 3000; op++ {
			id := uint64(rng.Intn(160))
			no := uint32(id >> 2)
			_, cached := s.cache[no]
			_, onDisk := s.index[no]
			switch k := rng.Intn(10); {
			case k < 4:
				if _, _, err := s.Get(key64(id)); err != nil {
					t.Fatal(err)
				}
				if cached || onDisk {
					m.touch(no)
				}
			case k < 8:
				if err := s.Put(key64(id), make([]byte, 8+rng.Intn(120))); err != nil {
					t.Fatal(err)
				}
				m.touch(no)
				m.dirty[no] = true
			case k < 9:
				had := false
				if cached || onDisk {
					pg, _ := s.fault(no, false)
					_, had = pg.m[string(key64(id))]
					m.touch(no)
				}
				if err := s.Delete(key64(id)); err != nil {
					t.Fatal(err)
				}
				if had {
					m.dirty[no] = true
				}
			default:
				for no := range m.dirty {
					if len(s.cache[no].m) == 0 { // an emptied page leaves the cache at Flush
						m.drop(no)
					}
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				m.dirty = map[uint32]bool{}
			}
			evictions += uint64(m.evict(s))
			if len(s.cache) != len(m.order) {
				t.Fatalf("seed %d op %d: %d pages cached, model has %d", seed, op, len(s.cache), len(m.order))
			}
			for _, no := range m.order {
				if _, ok := s.cache[no]; !ok {
					t.Fatalf("seed %d op %d: model keeps page %d, store evicted it", seed, op, no)
				}
			}
			if s.stats.Evictions != evictions {
				t.Fatalf("seed %d op %d: %d evictions, model made %d", seed, op, s.stats.Evictions, evictions)
			}
			if s.lru.Len()+len(s.dirty) != len(s.cache) {
				t.Fatalf("seed %d op %d: %d listed + %d pinned != %d cached", seed, op, s.lru.Len(), len(s.dirty), len(s.cache))
			}
		}
		if evictions == 0 {
			t.Fatalf("seed %d: budget never forced an eviction", seed)
		}
		s.Close()
	}
}

// TestDiskEvictCostTracksEvictions is the proportionality guard for
// evict: the nodes it can visit in one call are the pages on the
// eviction list, and summed over an ingest of 4 000 pinned pages plus a
// re-read pass they must stay within the pages actually evicted plus a
// constant per call — the budget's worth of clean pages. With pinned
// pages left on the list the first sum alone is ~N²/2.
func TestDiskEvictCostTracksEvictions(t *testing.T) {
	const pages = 4000
	s, err := OpenDisk(filepath.Join(t.TempDir(), "evict.dat"),
		DiskOptions{PageFor: Uint64Pager(0), CacheBudget: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	calls, visitable := 0, 0
	for i := uint64(0); i < pages; i++ {
		visitable += s.lru.Len()
		calls++
		if err := s.Put(key64(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.dirty) != pages || s.lru.Len() != 0 {
		t.Fatalf("after ingest: %d pinned, %d on the eviction list; want %d and 0", len(s.dirty), s.lru.Len(), pages)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < pages; i++ {
		visitable += s.lru.Len()
		calls++
		if _, ok, err := s.Get(key64(i)); err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
	}
	perCall := int(s.opt.CacheBudget/pageOverhead) + 1
	if ev := int(s.Stats().Evictions); visitable > ev+perCall*calls {
		t.Errorf("evict could visit %d list nodes over %d calls for %d evictions (allowed %d + %d per call)",
			visitable, calls, ev, ev, perCall)
	}
}
