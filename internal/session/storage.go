package session

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/centralized"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Out-of-core session wiring (WithStorageDir): a centralized session's
// two paged state planes — tuples and grouping indexes — open as
// page-structured disk stores under one directory, with the page-cache
// budget split across them. The split favors tuples (every delete
// re-reads its tuple) over groups. The violation marks, their epoch
// tries (which carry the per-rule postings) and the tuple-id index stay
// resident.

// Store file names under the storage directory.
const (
	tuplesFile = "tuples.dat"
	groupsFile = "groups.dat"
)

// defaultCacheBudget is the page-cache budget when WithStorageDir is
// given without WithPageCacheBudget.
const defaultCacheBudget = 64 << 20

// splitBudget divides the session budget across the two stores: 50%
// tuples, 35% groups; the remaining 15% is not handed out. Non-positive
// stays non-positive (unlimited) for both.
func splitBudget(total int64) (tuples, groups int64) {
	if total <= 0 {
		return total, total
	}
	return total / 2, total * 35 / 100
}

// openStorage opens the two stores of an out-of-core centralized
// session under dir, creating the directory and files as needed.
func openStorage(dir string, budget int64) (centralized.Storage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return centralized.Storage{}, fmt.Errorf("session: storage dir: %w", err)
	}
	tb, gb := splitBudget(budget)
	var st centralized.Storage
	open := func(name string, opt storage.DiskOptions) (storage.Store, error) {
		s, err := storage.OpenDisk(filepath.Join(dir, name), opt)
		if err != nil {
			st.Close()
			return nil, err
		}
		return s, nil
	}
	var err error
	if st.Tuples, err = open(tuplesFile, storage.DiskOptions{
		PageFor: storage.Uint64Pager(relation.TupleKeyShift), CacheBudget: tb, Monotone: true, Kind: 'T'}); err != nil {
		return centralized.Storage{}, err
	}
	if st.Groups, err = open(groupsFile, storage.DiskOptions{
		PageFor: storage.FNVPager(centralized.GroupPagerBits), CacheBudget: gb, Kind: 'G'}); err != nil {
		return centralized.Storage{}, err
	}
	return st, nil
}

// StorageStats reports the per-store page-cache and file counters of an
// out-of-core session, keyed "tuples" and "groups". Nil for in-memory
// sessions. The counters are a pure function of the input and the
// budget: the same run repeats them bit for bit.
func (s *Session) StorageStats() map[string]storage.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if inc, ok := s.eng.(*centralized.Incremental); ok {
		return inc.StorageStats()
	}
	return nil
}
