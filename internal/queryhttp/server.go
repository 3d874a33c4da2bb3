// Package queryhttp serves a session's lock-free read surface over
// HTTP/JSON: point-in-time queries, the per-rule histogram and the
// aggregate inconsistency measures, each answered from one epoch
// snapshot, plus a streaming watch endpoint that forwards the session's
// per-batch ∆V events as NDJSON with per-subscriber buffering, bounded
// admission and graceful drain.
//
// Every response carries the epoch it was computed at, so a client can
// correlate query answers with watch events and detect when it is
// reading across a gap (a watch event with dropped > 0 means "resync
// from a fresh /v1/query").
package queryhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/relation"
	"repro/internal/session"
)

// Options tunes a Server. Zero values select defaults.
type Options struct {
	// MaxStreams bounds concurrently admitted /v1/watch streams;
	// excess subscribers get 503. Default 64.
	MaxStreams int
	// StreamBuffer is the per-subscriber event buffer; a subscriber
	// that falls further behind sees dropped > 0 gap markers. Default
	// 256.
	StreamBuffer int
	// RetryAfter is the back-off hint every 503 carries as a
	// Retry-After header (seconds, rounded up to at least 1): watch
	// admission past MaxStreams, a draining server, and point reads
	// that hit ReadTimeout. Default 1s.
	RetryAfter time.Duration
	// ReadTimeout bounds each point read (/v1/query, /v1/count,
	// /v1/measures): a request that has not produced its response in
	// time gets an immediate JSON 503 and the straggling handler's
	// output is discarded. Default 2s.
	ReadTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxStreams <= 0 {
		o.MaxStreams = 64
	}
	if o.StreamBuffer <= 0 {
		o.StreamBuffer = 256
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 2 * time.Second
	}
	return o
}

// Server is an http.Handler over one session's read surface. Reads
// never touch the session's write lock: they are answered from the
// latest published epoch, so they stay fast while batches apply.
type Server struct {
	sess *session.Session
	opts Options
	mux  *http.ServeMux

	// readHook, when non-nil, runs at the start of every point read
	// before the handler touches the snapshot — the seam the timeout
	// tests use to simulate a stalled read. Set before serving; never
	// mutated after.
	readHook func()

	mu       sync.Mutex
	draining bool
	streams  map[int]func() // active watch cancels, for drain
	nextID   int
	wg       sync.WaitGroup
}

// New builds a Server over sess. The caller owns the session; Close
// drains the server's watch streams but leaves the session open.
func New(sess *session.Session, opts Options) *Server {
	srv := &Server{
		sess:    sess,
		opts:    opts.withDefaults(),
		mux:     http.NewServeMux(),
		streams: make(map[int]func()),
	}
	srv.mux.HandleFunc("/v1/query", srv.timed(srv.handleQuery))
	srv.mux.HandleFunc("/v1/count", srv.timed(srv.handleCount))
	srv.mux.HandleFunc("/v1/measures", srv.timed(srv.handleMeasures))
	srv.mux.HandleFunc("/v1/watch", srv.handleWatch)
	return srv
}

func (srv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	srv.mux.ServeHTTP(w, r)
}

// Close drains the server: new watch streams are refused with 503,
// active ones are cancelled (each ends with a terminal NDJSON line),
// and Close returns when every stream handler has exited or ctx is
// done. Point reads keep working — they are stateless.
func (srv *Server) Close(ctx context.Context) error {
	srv.mu.Lock()
	srv.draining = true
	cancels := make([]func(), 0, len(srv.streams))
	for _, c := range srv.streams {
		cancels = append(cancels, c)
	}
	srv.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	done := make(chan struct{})
	go func() {
		srv.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("queryhttp: drain: %w", ctx.Err())
	}
}

// errorBody is the uniform JSON error shape.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// setRetryAfter stamps the configured back-off hint on a 503, rounded
// up to whole seconds so a sub-second hint never degenerates to "0".
func (srv *Server) setRetryAfter(w http.ResponseWriter) {
	secs := int((srv.opts.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// bufferedResponse captures a point-read handler's output privately so
// a timed-out handler never races the real ResponseWriter: the straggler
// keeps writing into its own buffer, which is simply dropped.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header         { return b.header }
func (b *bufferedResponse) WriteHeader(code int)        { b.status = code }
func (b *bufferedResponse) Write(p []byte) (int, error) { return b.body.Write(p) }

// timed bounds a point read by ReadTimeout: the handler runs against a
// private buffer whose contents are forwarded only if they land in
// time; otherwise the client gets an immediate JSON 503 with a
// Retry-After hint and the handler's context is cancelled.
func (srv *Server) timed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), srv.opts.ReadTimeout)
		defer cancel()
		buf := &bufferedResponse{header: make(http.Header), status: http.StatusOK}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if srv.readHook != nil {
				srv.readHook()
			}
			h(buf, r.WithContext(ctx))
		}()
		select {
		case <-done:
			hdr := w.Header()
			for k, vs := range buf.header {
				hdr[k] = vs
			}
			w.WriteHeader(buf.status)
			w.Write(buf.body.Bytes())
		case <-ctx.Done():
			srv.setRetryAfter(w)
			writeError(w, http.StatusServiceUnavailable,
				"read timed out after %v", srv.opts.ReadTimeout)
		}
	}
}

func onlyGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return false
	}
	return true
}

// violationRow is one /v1/query result.
type violationRow struct {
	Tuple relation.TupleID `json:"tuple"`
	Rules []string         `json:"rules"`
}

// queryResponse is the /v1/query body.
type queryResponse struct {
	Epoch      uint64         `json:"epoch"`
	Count      int            `json:"count"`
	Violations []violationRow `json:"violations"`
}

// handleQuery answers GET /v1/query?rule=φ&tuple=id&limit=n. rule and
// tuple repeat; a rule not in force is 404 (the session's Query treats
// it as matching nothing, but over HTTP a typo should be loud).
func (srv *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !onlyGet(w, r) {
		return
	}
	q := r.URL.Query()
	sn := srv.sess.Snapshot()
	var filters []session.Filter
	if rules := q["rule"]; len(rules) > 0 {
		for _, rule := range rules {
			if !sn.RuleInForce(rule) {
				writeError(w, http.StatusNotFound, "unknown rule %q", rule)
				return
			}
		}
		filters = append(filters, session.ByRule(rules...))
	}
	if tuples := q["tuple"]; len(tuples) > 0 {
		ids := make([]relation.TupleID, len(tuples))
		for i, t := range tuples {
			id, err := strconv.ParseInt(t, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad tuple id %q", t)
				return
			}
			ids[i] = relation.TupleID(id)
		}
		filters = append(filters, session.ByTuple(ids...))
	}
	if lim := q.Get("limit"); lim != "" {
		n, err := strconv.Atoi(lim)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad limit %q", lim)
			return
		}
		filters = append(filters, session.Limit(n))
	}
	rows := sn.Query(filters...)
	resp := queryResponse{Epoch: sn.Epoch(), Count: len(rows), Violations: make([]violationRow, len(rows))}
	for i, v := range rows {
		resp.Violations[i] = violationRow{Tuple: v.Tuple, Rules: v.Rules}
	}
	writeJSON(w, http.StatusOK, resp)
}

// countResponse is the /v1/count body.
type countResponse struct {
	Epoch uint64    `json:"epoch"`
	Rules []ruleRow `json:"rules"`
}

type ruleRow struct {
	Rule  string `json:"rule"`
	Count int    `json:"count"`
}

func (srv *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	if !onlyGet(w, r) {
		return
	}
	sn := srv.sess.Snapshot()
	hist := sn.Count()
	resp := countResponse{Epoch: sn.Epoch(), Rules: make([]ruleRow, len(hist))}
	for i, rc := range hist {
		resp.Rules[i] = ruleRow{Rule: rc.Rule, Count: rc.Count}
	}
	writeJSON(w, http.StatusOK, resp)
}

// measuresResponse is the /v1/measures body.
type measuresResponse struct {
	Epoch           uint64  `json:"epoch"`
	Rows            int     `json:"rows"`
	Drastic         int     `json:"drastic"`
	ViolatingTuples int     `json:"violating_tuples"`
	Marks           int     `json:"marks"`
	RulesViolated   int     `json:"rules_violated"`
	TupleRatio      float64 `json:"tuple_ratio"`
}

func (srv *Server) handleMeasures(w http.ResponseWriter, r *http.Request) {
	if !onlyGet(w, r) {
		return
	}
	sn := srv.sess.Snapshot()
	m := sn.Measures()
	writeJSON(w, http.StatusOK, measuresResponse{
		Epoch:           sn.Epoch(),
		Rows:            m.Rows,
		Drastic:         m.Drastic,
		ViolatingTuples: m.ViolatingTuples,
		Marks:           m.Marks,
		RulesViolated:   m.RulesViolated,
		TupleRatio:      m.TupleRatio,
	})
}

// watchEvent is one NDJSON line of /v1/watch.
type watchEvent struct {
	Seq        int    `json:"seq"`
	Epoch      uint64 `json:"epoch"`
	Kind       string `json:"kind"`
	DeltaSize  int    `json:"delta_size"`
	Violations int    `json:"violations"`
	Marks      int    `json:"marks"`
	// Dropped is the number of events this stream missed immediately
	// before this one (buffer overflow). Non-zero means the client
	// should resync from /v1/query.
	Dropped uint64 `json:"dropped,omitempty"`
	// Closed marks the terminal line a draining server appends.
	Closed bool `json:"closed,omitempty"`
}

func kindString(k session.EventKind) string {
	switch k {
	case session.EventRulesAdded:
		return "rules-added"
	case session.EventRulesRemoved:
		return "rules-removed"
	default:
		return "batch"
	}
}

// handleWatch streams GET /v1/watch as NDJSON: one session event per
// line, flushed as it lands. Admission is bounded by MaxStreams; a
// draining server refuses new streams and terminates active ones with a
// {"closed":true} line. Both 503 refusals carry a Retry-After hint.
func (srv *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if !onlyGet(w, r) {
		return
	}
	srv.mu.Lock()
	if srv.draining {
		srv.mu.Unlock()
		srv.setRetryAfter(w)
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	if len(srv.streams) >= srv.opts.MaxStreams {
		srv.mu.Unlock()
		srv.setRetryAfter(w)
		writeError(w, http.StatusServiceUnavailable, "watch stream limit (%d) reached", srv.opts.MaxStreams)
		return
	}
	sub := srv.sess.Subscribe(srv.opts.StreamBuffer)
	id := srv.nextID
	srv.nextID++
	srv.streams[id] = sub.Cancel
	srv.wg.Add(1)
	srv.mu.Unlock()
	defer func() {
		srv.mu.Lock()
		delete(srv.streams, id)
		srv.mu.Unlock()
		sub.Cancel()
		srv.wg.Done()
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	if flusher != nil {
		flusher.Flush() // commit headers before the first event
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-sub.C():
			if !ok {
				// Cancelled by drain (or session close): say goodbye
				// explicitly so clients can tell drain from a cut.
				enc.Encode(watchEvent{Closed: true})
				return
			}
			line := watchEvent{
				Seq:        ev.Seq,
				Epoch:      ev.Epoch,
				Kind:       kindString(ev.Kind),
				Violations: ev.Violations,
				Marks:      ev.Marks,
				Dropped:    ev.Dropped,
			}
			if ev.Delta != nil {
				line.DeltaSize = ev.Delta.Size()
			}
			if err := enc.Encode(line); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}
