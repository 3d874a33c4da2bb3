package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/relation"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/workload"
)

// traceBlock is how many consecutive batches of a traced run share one
// recorder setting. Blocks alternate off/on, so one run yields traced
// and untraced latencies of the same session and their ratio is the
// tracing overhead. 16 covers two checkpoint compaction cycles (every
// 8th mark) in each block.
const traceBlock = 16

// counters is one reading of every cumulative meter the session exposes.
type counters struct {
	stats   network.Stats
	frame   int64
	calls   uint64 // Σ SiteCalls()
	store   storage.Stats
	updates int
	marks   int // Σ |∆V| returned by ApplyBatch
}

// run is one workload in one process, from generated inputs to checked
// outputs.
type run struct {
	sp      spec
	seed    int64
	seconds float64
	tmp     string
	rec     *recorder // nil in an untraced run
	warn    func(format string, a ...any)

	gen    *workload.Generator
	rules  []cfd.CFD
	rel    *relation.Relation
	mirror *relation.Relation
	stream *updates

	dep      *deployment
	sess     *session.Session
	opts     []session.Option
	heapBase uint64

	// window keeps the warm-up and meter batches of a traced run for the
	// layer replays that follow the timed phase.
	window []relation.UpdateList

	applied int       // batches applied so far: the next batch's sequence number
	opens   []float64 // seconds per Open
	lat     []float64 // µs per timed ApplyBatch
	doneAt  []float64 // seconds into the timed phase at which each returned
	latOn   []float64 // ... of those, with the recorder on
	latOff  []float64 // ... and off (traced runs only)
	updates int       // updates in the timed batches
	reader  *reader

	base, meterEnd counters
	openCalls      uint64
	residentPeak   int64
	fingerprint    uint64
	violShare      float64
	heaps          []float64 // live heap beyond heapBase, at heapReadings points of the meter window
	genS, timedS   float64

	attempted, failed int
	wrongV            bool // the final oracle did not hold
	layer             map[string]float64
}

// cleanup closes whatever the run still holds. Safe on every exit path.
func (r *run) cleanup() {
	if r.reader != nil {
		r.reader.halt()
	}
	r.closeSession()
	os.RemoveAll(r.tmp)
}

// closeSession closes the session and stops its sites, if any.
func (r *run) closeSession() {
	if r.sess != nil {
		r.sess.Close() // done with it; a close error changes nothing the run reports
		r.sess = nil
	}
	if r.dep != nil {
		r.dep.close()
		r.dep = nil
	}
}

// execute runs the workload. On a nil error the outputs were checked
// and r.failed says how many operations did not hold.
func (r *run) execute() error {
	started := time.Now()
	defer r.cleanup()
	if err := r.prepare(); err != nil {
		return err
	}
	if err := r.timed(); err != nil {
		return err
	}
	detect := r.oracle()
	if r.rec != nil {
		if err := r.layers(); err != nil {
			return err
		}
		// Again, for the batches the replays added and the resumed session.
		r.oracle()
		r.layer["centralized.detect_ms"] = ms64(detect)
		perRow := ratio(us64(detect), float64(r.mirror.Len()))
		r.layer["centralized.apply_vs_detect"] = ratio(r.layer["centralized.apply_us_per_update"], perRow)
		r.layer["bench.run_s"] = time.Since(started).Seconds()
	}
	if total := time.Since(started).Seconds(); total > 30 {
		r.warn("whole run took %.1f s, over 30 s", total)
	}
	return nil
}

// prepare generates the inputs, opens the session and warms it up. The
// rule set Σ and the base relation D are part of the workload and the
// same for every seed; the seed drives the update stream ∆D — which
// tuples go (see updates.go). Drawing D and
// Σ from the seed as well made state size and rule cost swing by 10–30 %
// from seed to seed at these sizes, which no bound could hold.
func (r *run) prepare() error {
	t := time.Now()
	r.gen = workload.NewSized(workload.TPCH, dataSeed, 8*r.sp.rows)
	r.rules = r.gen.Rules(numRules)
	r.rel = r.gen.Relation(r.sp.rows)
	r.genS = time.Since(t).Seconds()

	// The benchmark's own copies come first, so that they sit below the
	// baseline heap_live_mb is measured from.
	r.mirror = r.rel.Clone()
	r.stream = newUpdates(r.gen, r.rel, r.sp.profile, r.seed)
	if err := r.setup(); err != nil {
		return err
	}
	for i := 0; i < r.sp.warm; i++ {
		if _, _, err := r.apply(); err != nil {
			return fmt.Errorf("warm-up batch %d: %w", i, err)
		}
	}
	return nil
}

// heapNow is the live heap after a forced collection.
func heapNow() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// oracle checks V against a fresh detection on the mirror and returns
// how long the detection took. A wrong V fails every operation of the
// run: none of them can be trusted.
func (r *run) oracle() time.Duration {
	t := time.Now()
	want := centralized.Detect(r.mirror, r.rules)
	detect := time.Since(t)
	if !r.sess.Violations().Equal(want) {
		r.wrongV = true
	}
	return detect
}

func us64(d time.Duration) float64 { return float64(d) / 1e3 }
func ms64(d time.Duration) float64 { return float64(d) / 1e6 }

// setup opens the session sp.opens times, each on fresh sites and fresh
// directories, and keeps the last. setup_s is the median Open.
func (r *run) setup() error {
	for i := 0; i < r.sp.opens; i++ {
		r.closeSession()
		dir := filepath.Join(r.tmp, fmt.Sprintf("open%d", i))
		if r.sp.tcp {
			dep, err := deploy(r.rec)
			if err != nil {
				return fmt.Errorf("sites: %w", err)
			}
			r.dep = dep
		}
		r.opts = r.sp.options(r.gen.Schema(), dir, r.dep)
		if i == r.sp.opens-1 {
			// heap_live_mb is what the open session (and its in-process
			// sites) holds beyond the generated inputs.
			r.heapBase = heapNow()
		}
		end := func() {}
		if r.rec != nil {
			end = r.rec.beginRoot(spanOpen, -1)
		}
		t := time.Now()
		sess, err := session.Open(r.rel, r.rules, r.opts...)
		r.opens = append(r.opens, time.Since(t).Seconds())
		end()
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		r.sess = sess
	}
	r.openCalls = siteCalls(r.sess)
	return nil
}

// siteCalls is Σ SiteCalls(): every call the transport issued so far.
func siteCalls(sess *session.Session) uint64 {
	var total uint64
	for _, n := range sess.SiteCalls() {
		total += n
	}
	return total
}

// storeTotals adds up the counters of the session's stores (zero for an
// in-memory session).
func storeTotals(sess *session.Session) storage.Stats {
	var t storage.Stats
	for _, st := range sess.StorageStats() {
		t.Hits += st.Hits
		t.Misses += st.Misses
		t.Faults += st.Faults
		t.Evictions += st.Evictions
		t.FlushedBytes += st.FlushedBytes
		t.Compactions += st.Compactions
		t.ResidentBytes += st.ResidentBytes
		t.DiskBytes += st.DiskBytes
	}
	return t
}

// apply pulls the next batch, applies it to the session under the
// clock, and then to the mirror.
func (r *run) apply() (time.Duration, *cfd.Delta, error) {
	batch := r.stream.next(r.sp.batch)
	seq := r.applied
	r.applied++
	if r.rec != nil && seq < r.sp.warm+r.sp.meter {
		r.window = append(r.window, batch)
	}
	end := func() {}
	if r.rec != nil && r.rec.on.Load() {
		end = r.rec.beginRoot(spanApply, int64(seq))
	}
	t := time.Now()
	delta, err := r.sess.ApplyBatch(context.Background(), batch)
	dt := time.Since(t)
	end()
	if err != nil {
		return dt, nil, err
	}
	return dt, delta, batch.Normalize().Apply(r.mirror)
}

// read takes every cumulative meter at once.
func (r *run) read(updates, marks int) counters {
	c := counters{stats: r.sess.Stats(), calls: siteCalls(r.sess), store: storeTotals(r.sess), updates: updates, marks: marks}
	if cl := r.sess.Cluster(); cl != nil {
		c.frame = cl.FrameBytes()
	}
	return c
}

// timed is the measured phase: a closed loop of one writer (a session
// serialises writers, and a caller waits for its ∆V), plus one reader on
// the read workload. It lasts r.seconds and at least sp.meter batches.
func (r *run) timed() error {
	r.base = r.read(0, 0)
	if r.dep != nil && r.rec != nil {
		r.dep.armKeep()
	}
	if r.sp.reads {
		r.reader = startReader(r.sess, r.rules, r.sp.rows, r.seed)
	}
	marks := 0
	start := time.Now()
	for i := 0; i < r.sp.meter || time.Since(start).Seconds() < r.seconds; i++ {
		if r.rec != nil {
			r.rec.on.Store((i/traceBlock)%2 == 1)
		}
		dt, delta, err := r.apply()
		r.attempted++
		if err != nil {
			// A failed batch leaves session and mirror apart; nothing
			// after it can be checked.
			return fmt.Errorf("timed batch %d: %w", i, err)
		}
		us := us64(dt)
		r.lat = append(r.lat, us)
		r.doneAt = append(r.doneAt, time.Since(start).Seconds())
		if r.rec != nil {
			if r.rec.on.Load() {
				r.latOn = append(r.latOn, us)
			} else {
				r.latOff = append(r.latOff, us)
			}
		}
		r.updates += r.sp.batch
		marks += delta.Size()
		if r.rec != nil && r.sp.disk {
			if resident := storeTotals(r.sess).ResidentBytes; resident > r.residentPeak {
				r.residentPeak = resident
			}
		}
		if (i+1)%(r.sp.meter/heapReadings) == 0 && len(r.heaps) < heapReadings {
			// Read after fixed numbers of batches and not by the clock:
			// the checkpoint, journal and replay-log cycles are then at
			// fixed phases, so the readings do not depend on the box's
			// speed.
			if r.reader != nil {
				r.reader.gate.Lock() // its garbage is not the session's
			}
			if heap := heapNow(); heap > r.heapBase {
				r.heaps = append(r.heaps, float64(heap-r.heapBase))
			}
			if r.reader != nil {
				r.reader.gate.Unlock()
			}
		}
		if i == r.sp.meter-1 {
			r.meterEnd = r.read(r.updates, marks)
			if r.rec != nil {
				v := r.sess.Violations()
				r.fingerprint = v.Fingerprint()
				r.violShare = ratio(float64(v.Len()), float64(r.mirror.Len()))
			}
		}
	}
	r.timedS = time.Since(start).Seconds()
	if r.rec != nil {
		r.rec.on.Store(false)
	}
	if r.reader != nil {
		r.reader.halt()
		r.attempted += r.reader.n
		r.failed += r.reader.failed
	}
	if r.timedS < 5 {
		r.warn("timed phase lasted %.1f s, under 5 s", r.timedS)
	}
	if n := len(r.lat); pickPercentile(n) < 95 {
		r.warn("%d timed batches do not support a p95 (ten samples beyond it need 200)", n)
	}
	return nil
}

// heapReadings is how many times the meter window reads the live heap;
// heap_live_mb is their median. One reading follows which pages the
// out-of-core cache happens to hold at that batch.
const heapReadings = 5

// The end-to-end timings are computed over equal stretches of the timed
// phase, and each metric is the quartile of its per-slice values on the
// fast side. The box is a few cores of a shared host: what its
// neighbours do comes in bursts of seconds and only ever adds time, by
// 30 % and more on the small workloads, so the median slice follows the
// neighbours as soon as a burst covers half the run. The fast quartile
// holds still until bursts cover three quarters of it. What the program
// does itself every few batches (checkpoint compaction, journal and store
// write-back) recurs within every slice and stays in each slice's
// percentiles.
const (
	maxSlices       = 20 // of 0.75 s in a 15 s run
	minSliceBatches = 64 // fewer, longer slices where batches are slow: a p90 needs its samples
)

// endToEnd is what a user of the system sees, from an untraced run.
func (r *run) endToEnd() map[string]float64 {
	n := len(r.lat) / minSliceBatches
	if n > maxSlices {
		n = maxSlices
	}
	if n < 1 {
		n = 1
	}
	var perUpdate, p50, p90 []float64
	from := 0
	for k := 1; k <= n; k++ {
		to := from
		for to < len(r.lat) && (k == n || r.doneAt[to] < r.timedS*float64(k)/float64(n)) {
			to++
		}
		if to > from {
			part := r.lat[from:to]
			sorted := sortedCopy(part)
			perUpdate = append(perUpdate, sum(part)/float64(len(part)*r.sp.batch))
			p50 = append(p50, percentile(sorted, 50))
			p90 = append(p90, percentile(sorted, 90))
		}
		from = to
	}
	return map[string]float64{
		"setup_s":       median(r.opens),
		"updates_per_s": ratio(1e6, fastQuartile(perUpdate)),
		"apply_p50_us":  fastQuartile(p50),
		"apply_p90_us":  fastQuartile(p90),
		"heap_live_mb":  median(r.heaps) / (1 << 20),
	}
}

// fastQuartile is the first quartile of per-slice times.
func fastQuartile(xs []float64) float64 {
	return percentile(sortedCopy(xs), 25)
}

// latChunk is how many read latencies one buffer of the reader holds.
// The reader's sample grows in these small steps and not by doubling:
// heap_live_mb is read while it grows, and a buffer that doubles from
// half a megabyte to one on some runs only would show there. (Nothing is
// allocated ahead either: a few megabytes of ballast halve how often the
// collector runs, and with it every latency on the small workloads.)
const latChunk = 4096

// reader is the closed-loop reader of the read workload: it issues one
// read mix after another against the latest epoch while the writer runs.
type reader struct {
	chunks [][]float64 // µs per mix
	n      int
	failed int
	gate   sync.Mutex // held around each mix; the writer takes it to read the heap
	stop   chan struct{}
	once   sync.Once
	done   chan struct{}
}

func startReader(sess *session.Session, rules []cfd.CFD, rows int, seed int64) *reader {
	rd := &reader{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(rd.done)
		rng := rand.New(rand.NewSource(seed ^ 0x4EAD))
		ids := make([]relation.TupleID, 10)
		var last uint64
		for i := 0; ; i++ {
			select {
			case <-rd.stop:
				return
			default:
			}
			for k := range ids {
				ids[k] = relation.TupleID(1 + rng.Intn(rows))
			}
			rd.gate.Lock()
			t := time.Now()
			epoch, ok := readMix(sess, rules[i%len(rules)].ID, ids)
			us := us64(time.Since(t))
			if rd.n%latChunk == 0 {
				rd.chunks = append(rd.chunks, make([]float64, 0, latChunk))
			}
			rd.chunks[len(rd.chunks)-1] = append(rd.chunks[len(rd.chunks)-1], us)
			rd.n++
			rd.gate.Unlock()
			if !ok || epoch < last {
				rd.failed++
			}
			last = epoch
		}
	}()
	return rd
}

// halt stops the reader and waits for it. Idempotent.
func (rd *reader) halt() {
	rd.once.Do(func() { close(rd.stop) })
	<-rd.done
}

// sorted returns the read latencies in ascending order. Call after halt.
func (rd *reader) sorted() []float64 {
	out := make([]float64, 0, rd.n)
	for _, c := range rd.chunks {
		out = append(out, c...)
	}
	sort.Float64s(out)
	return out
}

// readMix is one read operation: a snapshot, a per-rule page, a
// per-tuple lookup, the histogram and the measures, all from one epoch.
// It reports the epoch and whether the histogram adds up to the marks.
func readMix(sess *session.Session, rule string, ids []relation.TupleID) (uint64, bool) {
	sn := sess.Snapshot()
	sn.Query(session.ByRule(rule), session.Limit(100))
	sn.Query(session.ByTuple(ids...))
	total := 0
	for _, c := range sn.Count() {
		total += c.Count
	}
	return sn.Epoch(), total == sn.Measures().Marks
}
