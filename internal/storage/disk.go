package storage

import (
	"bufio"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/seglog"
	"repro/internal/xerr"
)

// DiskStore file layout. One append-only data file per store, framed by
// internal/seglog: its header (magic "RSTR", version, the store's kind
// byte) and its CRC-framed records, each:
//
//	page number  big-endian uint32 (4)
//	live count   big-endian uint32 (4)
//	page payload (see page.go; empty when count == 0 — a tombstone)
//
// The newest record for a page number wins; older records and applied
// tombstones are dead weight reclaimed by compaction (seglog.Replace). A
// torn trailing record is the expected crash-mid-append shape and is
// truncated on open; any other damage fails open with
// xerr.ErrStoreCorrupt.

var diskFormat = seglog.Format{
	Magic:   [4]byte{'R', 'S', 'T', 'R'},
	Version: 1,
	Name:    "storage",
	Corrupt: xerr.ErrStoreCorrupt,
}

const (
	recPrefixLen = 8 // page number + live count
	// pageOverhead approximates the fixed in-memory cost of one cached
	// page beyond its records (struct, map header, list element).
	pageOverhead = 128
	// compactMinDead is the floor of reclaimable bytes below which
	// compaction is never worth a file rewrite.
	compactMinDead = 1 << 16
)

// DiskOptions configures a DiskStore.
type DiskOptions struct {
	// PageFor maps a key to its page number. Required. All keys of a
	// page are stored, cached, faulted and evicted together, so a good
	// pager clusters keys that are accessed together.
	PageFor func(key []byte) uint32
	// CacheBudget bounds the approximate decoded bytes of the page
	// cache; <= 0 means unlimited. Dirty pages are pinned until Flush,
	// so the cache can exceed the budget transiently within a round.
	CacheBudget int64
	// Monotone declares that PageFor is monotone in bytewise key order,
	// letting EachRange fault only pages that can intersect the range.
	Monotone bool
	// Kind is the header kind byte identifying what the store holds
	// (e.g. 'T' tuples, 'G' groups). Zero means 'S'.
	Kind byte
}

type pageLoc struct {
	off   int64 // frame start offset in the data file
	rec   int64 // total framed record size (frame + payload)
	count int   // live records in the page
}

type page struct {
	no    uint32
	m     map[string][]byte
	size  int64 // approximate decoded bytes (records only)
	dirty bool
	// used is the store clock at the page's last access. Clean pages
	// sit on the eviction list in descending used order; a dirty page
	// is off the list (el == nil) and rejoins it by used at Flush.
	used uint64
	el   *list.Element
}

// DiskStore is the disk backend: a page-structured append-only file
// with an LRU cache of decoded pages under a byte budget. Safe for
// concurrent use.
type DiskStore struct {
	mu   sync.Mutex
	f    *os.File
	path string
	opt  DiskOptions

	index    map[uint32]pageLoc
	fileSize int64
	dead     int64 // bytes of superseded records and applied tombstones
	n        int   // live records across all pages

	cache map[uint32]*page
	// lru is the eviction list: the clean cached pages, front = most
	// recently used. Pinned (dirty) pages are kept off it, so evict
	// only ever visits pages it evicts.
	lru      *list.List
	clock    uint64  // access counter behind page.used
	dirty    []*page // the pinned pages
	resident int64

	stats   Stats
	encBuf  []byte
	readBuf []byte // one framed record, reused across page reads
}

// OpenDisk opens (creating if absent) the data file at path. Reopening
// an existing file rebuilds the page index by scanning it, truncating a
// torn trailing record.
func OpenDisk(path string, opt DiskOptions) (*DiskStore, error) {
	if opt.PageFor == nil {
		return nil, errors.New("storage: DiskOptions.PageFor is required")
	}
	if opt.Kind == 0 {
		opt.Kind = 'S'
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	s := &DiskStore{
		f:     f,
		path:  path,
		opt:   opt,
		index: make(map[uint32]pageLoc),
		cache: make(map[uint32]*page),
		lru:   list.New(),
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: %w", err)
	}
	if fi.Size() == 0 {
		if err = diskFormat.WriteHeader(f, opt.Kind); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: %w", err)
		}
		s.fileSize = seglog.HeaderLen
		return s, nil
	}
	if err := s.scan(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// scan rebuilds the index from the data file, newest record per page
// winning, and truncates a torn trailing record.
func (s *DiskStore) scan() error {
	size, torn, err := diskFormat.Scan(s.f, s.opt.Kind, func(off int64, payload []byte) error {
		if len(payload) < recPrefixLen {
			return diskFormat.Corruptf("%s @%d: record shorter than its prefix", s.path, off)
		}
		no := binary.BigEndian.Uint32(payload[0:4])
		count := int(binary.BigEndian.Uint32(payload[4:8]))
		rec := int64(seglog.FrameOverhead + len(payload))
		if old, ok := s.index[no]; ok {
			s.dead += old.rec
			s.n -= old.count
		}
		if count == 0 {
			delete(s.index, no)
			s.dead += rec // an applied tombstone is itself dead weight
		} else {
			s.index[no] = pageLoc{off: off, rec: rec, count: count}
			s.n += count
		}
		return nil
	})
	if err != nil {
		return err
	}
	if torn {
		if size < seglog.HeaderLen {
			return diskFormat.Corruptf("%s: short header", s.path)
		}
		// Crash mid-append: drop the torn tail, keep everything before it.
		if err := s.f.Truncate(size); err != nil {
			return fmt.Errorf("storage: %w", err)
		}
	}
	s.fileSize = size
	if _, err := s.f.Seek(size, io.SeekStart); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}

// readRecord reads the framed record of page no at loc with a single
// pread into the reused read buffer and returns it CRC-verified: the
// whole record (valid until the next readRecord) and its page payload.
func (s *DiskStore) readRecord(no uint32, loc pageLoc) (rec, payload []byte, err error) {
	if int64(cap(s.readBuf)) < loc.rec {
		s.readBuf = make([]byte, loc.rec)
	}
	rec = s.readBuf[:loc.rec]
	if _, err := s.f.ReadAt(rec, loc.off); err != nil {
		return nil, nil, diskFormat.Corruptf("%s page %d @%d: %v", s.path, no, loc.off, err)
	}
	body, err := seglog.CheckFramed(rec)
	if err != nil {
		return nil, nil, diskFormat.Corruptf("%s page %d @%d: %v", s.path, no, loc.off, err)
	}
	if len(body) < recPrefixLen || binary.BigEndian.Uint32(body[0:4]) != no {
		return nil, nil, diskFormat.Corruptf("%s page %d @%d: record/index mismatch", s.path, no, loc.off)
	}
	return rec, body[recPrefixLen:], nil
}

// fault returns the decoded page, serving from the cache or reading it
// from disk. With create=false an absent page returns (nil, nil).
// Caller holds s.mu.
func (s *DiskStore) fault(no uint32, create bool) (*page, error) {
	s.clock++
	if pg, ok := s.cache[no]; ok {
		pg.used = s.clock
		if pg.el != nil {
			s.lru.MoveToFront(pg.el)
		}
		s.stats.Hits++
		return pg, nil
	}
	s.stats.Misses++
	pg := &page{no: no, m: make(map[string][]byte), used: s.clock}
	if loc, ok := s.index[no]; ok {
		_, payload, err := s.readRecord(no, loc)
		if err != nil {
			return nil, err
		}
		m, size, err := decodePage(payload)
		if err != nil {
			return nil, diskFormat.Corruptf("%s page %d @%d: %v", s.path, no, loc.off, err)
		}
		pg.m, pg.size = m, size
		s.stats.Faults++
	} else if !create {
		return nil, nil
	}
	s.cache[no] = pg
	pg.el = s.lru.PushFront(pg)
	s.resident += pg.size + pageOverhead
	return pg, nil
}

// pin marks pg dirty and takes it off the eviction list until Flush.
// Caller holds s.mu.
func (s *DiskStore) pin(pg *page) {
	if pg.dirty {
		return
	}
	pg.dirty = true
	s.lru.Remove(pg.el)
	pg.el = nil
	s.dirty = append(s.dirty, pg)
}

// evict drops least-recently-used clean pages until the cache fits the
// budget or only pinned pages remain. Caller holds s.mu.
func (s *DiskStore) evict() {
	if s.opt.CacheBudget <= 0 {
		return
	}
	for s.resident > s.opt.CacheBudget {
		el := s.lru.Back()
		if el == nil {
			return
		}
		pg := s.lru.Remove(el).(*page)
		delete(s.cache, pg.no)
		s.resident -= pg.size + pageOverhead
		s.stats.Evictions++
	}
}

func (s *DiskStore) Get(key []byte) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, err := s.fault(s.opt.PageFor(key), false)
	if err != nil || pg == nil {
		return nil, false, err
	}
	v, ok := pg.m[string(key)]
	s.evict()
	return v, ok, nil
}

func (s *DiskStore) Put(key, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, err := s.fault(s.opt.PageFor(key), true)
	if err != nil {
		return err
	}
	k := string(key)
	if old, ok := pg.m[k]; ok {
		pg.size += int64(len(val) - len(old))
		s.resident += int64(len(val) - len(old))
	} else {
		d := int64(len(k)+len(val)) + entryOverhead
		pg.size += d
		s.resident += d
		s.n++
	}
	pg.m[k] = append([]byte(nil), val...)
	s.pin(pg)
	s.evict()
	return nil
}

func (s *DiskStore) Delete(key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, err := s.fault(s.opt.PageFor(key), false)
	if err != nil || pg == nil {
		return err
	}
	k := string(key)
	if old, ok := pg.m[k]; ok {
		delete(pg.m, k)
		d := int64(len(k)+len(old)) + entryOverhead
		pg.size -= d
		s.resident -= d
		s.n--
		s.pin(pg)
	}
	s.evict()
	return nil
}

func (s *DiskStore) Each(fn func(key, val []byte) bool) error {
	return s.EachRange(nil, nil, fn)
}

func (s *DiskStore) EachRange(lo, hi []byte, fn func(key, val []byte) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Candidate pages: everything indexed on disk plus cached pages
	// that were never flushed.
	seen := make(map[uint32]struct{}, len(s.index)+len(s.cache))
	pages := make([]uint32, 0, len(s.index)+len(s.cache))
	add := func(no uint32) {
		if _, ok := seen[no]; !ok {
			seen[no] = struct{}{}
			pages = append(pages, no)
		}
	}
	for no := range s.index {
		add(no)
	}
	for no := range s.cache {
		add(no)
	}
	if s.opt.Monotone {
		// A monotone pager bounds the pages a key range can touch.
		filtered := pages[:0]
		var pLo, pHi uint32
		if lo != nil {
			pLo = s.opt.PageFor(lo)
		}
		if hi != nil {
			pHi = s.opt.PageFor(hi)
		}
		for _, no := range pages {
			if lo != nil && no < pLo {
				continue
			}
			if hi != nil && no > pHi {
				continue
			}
			filtered = append(filtered, no)
		}
		pages = filtered
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	keys := make([]string, 0, 64)
	for _, no := range pages {
		pg, err := s.fault(no, false)
		if err != nil {
			return err
		}
		if pg == nil {
			continue
		}
		keys = keys[:0]
		for k := range pg.m {
			if lo != nil && k < string(lo) {
				continue
			}
			if hi != nil && k >= string(hi) {
				continue
			}
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !fn([]byte(k), pg.m[k]) {
				s.evict()
				return nil
			}
		}
		s.evict()
	}
	return nil
}

func (s *DiskStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Flush appends every dirty page (tombstoning pages that became empty),
// fsyncs the file and unpins the flushed pages, then compacts when the
// dead-byte share warrants a rewrite. The engines call Flush at
// protocol-round boundaries, so within a round writes batch in memory.
func (s *DiskStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *DiskStore) flushLocked() error {
	if len(s.dirty) == 0 {
		return nil
	}
	sort.Slice(s.dirty, func(i, j int) bool { return s.dirty[i].no < s.dirty[j].no })
	bw := bufio.NewWriter(s.f)
	off := s.fileSize
	for _, pg := range s.dirty {
		old, onDisk := s.index[pg.no]
		if len(pg.m) == 0 && !onDisk {
			// Never persisted and now empty: nothing to write or
			// tombstone.
			continue
		}
		s.encBuf = s.encBuf[:0]
		s.encBuf = binary.BigEndian.AppendUint32(s.encBuf, pg.no)
		s.encBuf = binary.BigEndian.AppendUint32(s.encBuf, uint32(len(pg.m)))
		s.encBuf = encodePage(s.encBuf, pg.m)
		if err := seglog.WriteFramed(bw, s.encBuf); err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		rec := int64(seglog.FrameOverhead + len(s.encBuf))
		if onDisk {
			s.dead += old.rec
		}
		if len(pg.m) == 0 {
			delete(s.index, pg.no)
			s.dead += rec // the tombstone itself
		} else {
			s.index[pg.no] = pageLoc{off: off, rec: rec, count: len(pg.m)}
		}
		off += rec
		s.stats.FlushedPages++
		s.stats.FlushedBytes += uint64(rec)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	s.fileSize = off
	s.unpin()
	s.evict()
	return s.maybeCompact()
}

// unpin returns the flushed pages to the eviction list, each at the
// position its last access earned — the list stays in descending used
// order, so victims are exactly those of an LRU that never unlinked the
// pinned pages. Pages that became empty leave the cache instead (not
// counted as evictions). The walk from the front passes only clean pages
// used since the oldest pinned one, i.e. pages this round touched.
// Caller holds s.mu.
func (s *DiskStore) unpin() {
	sort.Slice(s.dirty, func(i, j int) bool { return s.dirty[i].used > s.dirty[j].used })
	at := s.lru.Front()
	for _, pg := range s.dirty {
		pg.dirty = false
		if len(pg.m) == 0 {
			delete(s.cache, pg.no)
			s.resident -= pg.size + pageOverhead
			continue
		}
		for at != nil && at.Value.(*page).used > pg.used {
			at = at.Next()
		}
		if at == nil {
			pg.el = s.lru.PushBack(pg)
		} else {
			pg.el = s.lru.InsertBefore(pg, at)
		}
	}
	s.dirty = nil // not [:0]: a seeding round's worth of page pointers must not stay reachable
}

// maybeCompact rewrites the data file when dead bytes exceed both a
// fixed floor and the live bytes — the classic "over half the file is
// garbage" rule. Caller holds s.mu with no dirty pages outstanding.
func (s *DiskStore) maybeCompact() error {
	live := s.fileSize - seglog.HeaderLen - s.dead
	if s.dead < compactMinDead || s.dead <= live {
		return nil
	}
	return s.compactLocked()
}

// compactLocked streams the newest record of every live page into a
// replacement of the data file (seglog.Replace: a crash at any point
// leaves either the old file or the new one, never a mix).
func (s *DiskStore) compactLocked() error {
	nos := make([]uint32, 0, len(s.index))
	for no := range s.index {
		nos = append(nos, no)
	}
	sort.Slice(nos, func(i, j int) bool { return nos[i] < nos[j] })
	newIndex := make(map[uint32]pageLoc, len(nos))
	off := int64(seglog.HeaderLen)
	err := seglog.Replace(s.path+".tmp", s.path, func(w *bufio.Writer) error {
		if err := diskFormat.WriteHeader(w, s.opt.Kind); err != nil {
			return err
		}
		for _, no := range nos {
			loc := s.index[no]
			rec, _, err := s.readRecord(no, loc)
			if err != nil {
				return err
			}
			// The verified record moves as it is, frame and all.
			if _, err := w.Write(rec); err != nil {
				return err
			}
			newIndex[no] = pageLoc{off: off, rec: loc.rec, count: loc.count}
			off += loc.rec
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("storage: compact: %w", err)
	}
	nf, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("storage: compact reopen: %w", err)
	}
	if _, err := nf.Seek(off, io.SeekStart); err != nil {
		nf.Close()
		return fmt.Errorf("storage: compact reopen: %w", err)
	}
	s.f.Close()
	s.f = nf
	s.index = newIndex
	s.fileSize = off
	s.dead = 0
	s.stats.Compactions++
	return nil
}

func (s *DiskStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.ResidentPages = len(s.cache)
	st.ResidentBytes = s.resident
	st.DirtyPages = len(s.dirty)
	st.DiskBytes = s.fileSize
	return st
}

func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.flushLocked()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

var (
	_ Store = (*MemStore)(nil)
	_ Store = (*DiskStore)(nil)
)
