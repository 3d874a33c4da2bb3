package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/centralized"
	"repro/internal/journal"
	"repro/internal/netwire"
	"repro/internal/queryhttp"
	"repro/internal/relation"
	"repro/internal/session"
)

// layers computes the per-layer metrics of a traced run: the exact
// counts over the meter window, the span aggregates of the timed phase,
// and the replays that follow it (shadow maintainer, allocations,
// queryhttp, netwire, journal, resume). Every per-layer metric gets a
// value; a layer the workload bypasses reads 0.
func (r *run) layers() error {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	r.layer = m

	// Exact counts, over the first sp.meter timed batches.
	end, base := r.meterEnd, r.base
	upd, batches := float64(end.updates), float64(r.sp.meter)
	wire := end.stats.Sub(base.stats)
	frame := float64(end.frame - base.frame)
	m["network.wire_bytes_per_update"] = ratio(float64(wire.Bytes), upd)
	m["network.wire_msgs_per_update"] = ratio(float64(wire.Messages), upd)
	m["network.frame_bytes_per_update"] = ratio(frame, upd)
	m["network.frame_per_wire_byte"] = ratio(frame, float64(wire.Bytes))
	m["network.round_trips_per_batch"] = ratio(float64(end.calls-base.calls), batches)
	m["cfd.delta_marks_per_update"] = ratio(float64(end.marks), upd)
	m["cfd.violating_share"] = r.violShare
	// The low 48 bits: a JSON number holds them exactly.
	m["cfd.v_fingerprint"] = float64(r.fingerprint & (1<<48 - 1))
	m["session.open_seed_calls"] = float64(r.openCalls)
	if engine := r.sp.engineLayer(); engine != "" {
		m[engine+".calls_per_batch"] = ratio(float64(wire.Messages), batches)
		var busy int64
		for _, ns := range wire.BusyNanos {
			busy += ns
		}
		m[engine+".site_busy_us_per_batch"] = ratio(float64(busy)/1e3, batches)
	}
	if r.sp.engine == "ver" {
		m["vertical.eqids_per_update"] = ratio(float64(wire.Eqids), upd)
	}
	if r.sp.disk {
		st, b := end.store, base.store
		m["storage.faults_per_update"] = ratio(float64(st.Faults-b.Faults), upd)
		m["storage.evictions_per_update"] = ratio(float64(st.Evictions-b.Evictions), upd)
		hits, misses := float64(st.Hits-b.Hits), float64(st.Misses-b.Misses)
		m["storage.hit_ratio"] = ratio(hits, hits+misses)
		m["storage.flushed_bytes_per_update"] = ratio(float64(st.FlushedBytes-b.FlushedBytes), upd)
		m["storage.compactions"] = float64(st.Compactions - b.Compactions)
		m["storage.disk_bytes_per_row"] = ratio(float64(st.DiskBytes), float64(r.mirror.Len()))
		m["storage.resident_bytes_peak"] = float64(r.residentPeak)
	}

	// Timings of the timed phase.
	r.spanMetrics()
	m["session.apply_p95_us"] = percentile(sortedCopy(r.lat), 95)
	if r.reader != nil {
		reads := r.reader.sorted()
		m["session.read_p50_us"] = percentile(reads, 50)
		m["session.read_p99_us"] = percentile(reads, 99)
		m["session.read_max_us"] = percentile(reads, 100)
	}
	m["bench.trace_overhead_share"] = ratio(median(r.latOn), median(r.latOff)) - 1
	m["bench.timed_s"] = r.timedS
	m["workload.gen_s"] = r.genS

	// Replays after the timed phase; the reader has stopped.
	if err := r.shadow(); err != nil {
		return err
	}
	if err := r.allocs(); err != nil {
		return err
	}
	if r.sp.reads {
		if err := r.httpReads(); err != nil {
			return err
		}
	}
	if r.sp.tcp {
		r.netwireReplay()
		if err := r.durability(); err != nil {
			return err
		}
	}
	return nil
}

// spanMetrics aggregates the recorded spans. Only the traced blocks of
// the timed phase (and the Opens' bootstraps) recorded any.
func (r *run) spanMetrics() {
	m := r.layer
	r.rec.mu.Lock()
	spans := r.rec.spans
	r.rec.mu.Unlock()

	children := make(map[int64][]span)
	var lastOpen int64
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		if s.Name == spanOpen {
			lastOpen = s.ID
		}
	}
	var applies, dispatches float64
	var self, wait, write, dispatch, chk, bootstrap int64
	var snapshots []float64
	for _, s := range spans {
		switch s.Name {
		case spanApply:
			applies++
			var waits, writes []span
			for _, c := range children[s.ID] {
				if c.Name == spanWait {
					waits = append(waits, c)
				} else {
					writes = append(writes, c)
				}
			}
			self += selfTime(s, children[s.ID])
			wait += covered(s.Start, s.End, waits)
			write += covered(s.Start, s.End, writes)
		case spanDispatch:
			dispatches++
			dispatch += s.dur()
		case spanChkMark:
			chk += s.dur()
			if s.Compacting {
				snapshots = append(snapshots, float64(s.dur())/1e6)
			}
		case spanBootstrap:
			if s.Parent == lastOpen {
				bootstrap += s.dur()
			}
		}
	}
	m["session.apply_self_us_per_batch"] = ratio(float64(self)/1e3, applies)
	if !r.sp.tcp {
		return
	}
	m["network.wait_us_per_batch"] = ratio(float64(wait)/1e3, applies)
	m["network.write_us_per_batch"] = ratio(float64(write)/1e3, applies)
	m[r.sp.engineLayer()+".site_busy_us_per_batch"] = ratio(float64(dispatch)/1e3, applies)
	m["sitehost.dispatch_us_per_call"] = ratio(float64(dispatch)/1e3, dispatches)
	m["sitehost.bootstrap_ms"] = float64(bootstrap) / 1e6
	m["checkpoint.mark_us_per_batch"] = ratio(float64(chk)/1e3, applies)
	m["checkpoint.snapshot_ms_p50"] = median(snapshots)
}

// shadow feeds the kept batches to a plain in-memory maintainer: the
// floor under every workload's apply, measured in the same run.
func (r *run) shadow() error {
	m := r.layer
	inc, err := centralized.NewIncremental(r.rel, r.rules)
	if err != nil {
		return fmt.Errorf("shadow maintainer: %w", err)
	}
	var apply, publish time.Duration
	for i, ul := range r.window {
		norm := ul.Normalize()
		t := time.Now()
		if _, err := inc.Apply(norm); err != nil {
			return fmt.Errorf("shadow maintainer: batch %d: %w", i, err)
		}
		t1 := time.Now()
		inc.Violations().Publish()
		if i >= r.sp.warm {
			apply += t1.Sub(t)
			publish += time.Since(t1)
		}
	}
	batches := float64(len(r.window) - r.sp.warm)
	m["centralized.apply_us_per_update"] = ratio(us64(apply), batches*float64(r.sp.batch))
	m["cfd.publish_us_per_batch"] = ratio(us64(publish), batches)
	if r.sp.disk {
		m["storage.overhead_us_per_batch"] = median(r.lat) - ratio(us64(apply), batches)
	}
	return nil
}

// allocs counts heap allocations over a run of batches with nothing of
// the benchmark's own between them: the batches are pulled first and
// reach the mirror afterwards.
func (r *run) allocs() error {
	n := 1024 / r.sp.batch
	if n < 16 {
		n = 16
	}
	pulled := make([]relation.UpdateList, n)
	for i := range pulled {
		pulled[i] = r.stream.next(r.sp.batch)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, ul := range pulled {
		if _, err := r.sess.ApplyBatch(context.Background(), ul); err != nil {
			return fmt.Errorf("allocation batch %d: %w", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	for _, ul := range pulled {
		if err := ul.Normalize().Apply(r.mirror); err != nil {
			return err
		}
	}
	r.attempted += n
	r.layer["session.allocs_per_update"] = ratio(float64(after.Mallocs-before.Mallocs), float64(n*r.sp.batch))
	return nil
}

// httpReads issues the read mix through queryhttp's handler.
func (r *run) httpReads() error {
	srv := queryhttp.New(r.sess, queryhttp.Options{})
	defer srv.Close(context.Background())
	const mixes = 200
	var lat []float64
	for i := 0; i < mixes; i++ {
		tuples := url.Values{}
		for k := 0; k < 10; k++ {
			tuples.Add("tuple", strconv.Itoa(1+(i*10+k)%r.sp.rows))
		}
		targets := []string{
			"/v1/query?limit=100&rule=" + url.QueryEscape(r.rules[i%len(r.rules)].ID),
			"/v1/query?" + tuples.Encode(),
			"/v1/count",
			"/v1/measures",
		}
		t := time.Now()
		for _, target := range targets {
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
			if w.Code != 200 {
				return fmt.Errorf("queryhttp: GET %s: status %d", target, w.Code)
			}
		}
		lat = append(lat, us64(time.Since(t)))
	}
	r.attempted += mixes
	r.layer["queryhttp.query_us"] = median(lat)
	return nil
}

// netwireReplay runs the envelopes the sites kept through the codec.
func (r *run) netwireReplay() {
	m := r.layer
	msgs := r.dep.keptMsgs()
	if len(msgs) == 0 {
		return
	}
	encoded := make([][]byte, len(msgs))
	var overhead int
	t := time.Now()
	for i, msg := range msgs {
		encoded[i], _ = netwire.EncodeMsg(msg) // these envelopes crossed the wire already
	}
	enc := time.Since(t)
	t = time.Now()
	for _, b := range encoded {
		netwire.DecodeMsg(b)
	}
	dec := time.Since(t)
	for i, b := range encoded {
		framed, _ := netwire.AppendFrame(nil, b, 0)
		overhead += len(framed) - len(msgs[i].Data)
	}
	n := float64(len(msgs))
	m["netwire.encode_us_per_msg"] = us64(enc) / n
	m["netwire.decode_us_per_msg"] = us64(dec) / n
	m["netwire.frame_overhead_bytes_per_msg"] = float64(overhead) / n
}

// durability closes the session, replays its journal through a scratch
// store, and resumes over it: the driver-restart path.
func (r *run) durability() error {
	m := r.layer
	// A journal that has just compacted holds no rounds to replay.
	if r.sess.Journal().Rounds%16 == 0 {
		if _, _, err := r.apply(); err != nil {
			return err
		}
		r.attempted++
	}
	callsBefore := siteCalls(r.sess)
	replayed := r.sess.ReplayedCalls()
	dir := filepath.Join(r.tmp, fmt.Sprintf("open%d", r.sp.opens-1))
	m["checkpoint.disk_bytes_final"] = float64(dirBytes(filepath.Join(dir, "ckpt")))
	if err := r.sess.Close(); err != nil {
		return fmt.Errorf("close before resume: %w", err)
	}
	r.sess = nil

	t := time.Now()
	jnl, err := journal.Open(filepath.Join(dir, "journal"))
	if err != nil {
		return err
	}
	st, err := jnl.Recover()
	m["journal.recover_ms"] = ms64(time.Since(t))
	jnl.Close()
	if err != nil {
		return fmt.Errorf("journal recover: %w", err)
	}
	if st != nil && len(st.Applied) > 0 {
		if err := r.journalReplay(st); err != nil {
			return err
		}
	} else {
		r.warn("final journal holds no applied round; journal replay skipped")
	}

	end := r.rec.beginRoot(spanResume, -1)
	t = time.Now()
	sess, err := session.Open(r.rel, r.rules, r.opts...)
	m["session.resume_ms"] = ms64(time.Since(t))
	end()
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	r.sess = sess
	if !sess.Journal().Resumed {
		return fmt.Errorf("resume: Open reseeded instead of resuming over the journal")
	}
	m["session.resume_calls"] = float64(siteCalls(sess) - callsBefore)
	m["network.replayed_calls"] = float64(replayed + sess.ReplayedCalls())
	return nil
}

// journalReplay re-appends the recovered rounds to a scratch journal,
// a few times over so the clock has something to measure.
func (r *run) journalReplay(st *journal.State) error {
	m := r.layer
	dir := filepath.Join(r.tmp, "journal-replay")
	jnl, err := journal.Open(dir)
	if err != nil {
		return err
	}
	defer jnl.Close()
	if err := jnl.Begin(st.Base); err != nil {
		return err
	}
	before := dirBytes(dir)
	const passes = 8
	var updates, rounds int
	t := time.Now()
	for p := 0; p < passes; p++ {
		for i := range st.Applied {
			if err := jnl.Intent(&st.Intents[i]); err != nil {
				return err
			}
			if err := jnl.Applied(&st.Applied[i]); err != nil {
				return err
			}
			updates += len(st.Intents[i].Updates)
			rounds++
		}
	}
	m["journal.append_us_per_round"] = ratio(us64(time.Since(t)), float64(rounds))
	m["journal.bytes_per_update"] = ratio(float64(dirBytes(dir)-before), float64(updates))
	return nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
