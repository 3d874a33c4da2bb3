package queryhttp

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/session"
	"repro/internal/workload"
)

// fixture opens a centralized session with violations and returns it
// with its generator and a mirror relation for producing valid updates.
func fixture(t *testing.T) (*session.Session, *workload.Generator, *relation.Relation) {
	t.Helper()
	gen := workload.NewSized(workload.TPCH, 17, 900)
	rules := gen.Rules(4)
	rel := gen.Relation(300)
	s, err := session.Open(rel, rules)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	mirror := rel.Clone()
	for i := 0; i < 3 && len(s.Query()) == 0; i++ {
		applyBatch(t, s, gen, mirror)
	}
	if len(s.Query()) == 0 {
		t.Fatal("fixture has no violations")
	}
	return s, gen, mirror
}

func applyBatch(t *testing.T, s *session.Session, gen *workload.Generator, mirror *relation.Relation) {
	t.Helper()
	updates := gen.Updates(mirror, 60, 0.7)
	if err := updates.Normalize().Apply(mirror); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyBatch(context.Background(), updates); err != nil {
		t.Fatal(err)
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
	return resp.StatusCode
}

// TestPointEndpoints pins the three point reads against the session's
// own answers, including the epoch stamp.
func TestPointEndpoints(t *testing.T) {
	s, _, _ := fixture(t)
	srv := New(s, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var q queryResponse
	if code := getJSON(t, ts, "/v1/query", &q); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	want := s.Query()
	if q.Epoch != s.Epoch() || q.Count != len(want) || len(q.Violations) != len(want) {
		t.Fatalf("query = epoch %d count %d, want epoch %d count %d", q.Epoch, q.Count, s.Epoch(), len(want))
	}
	for i, row := range q.Violations {
		if row.Tuple != want[i].Tuple || !reflect.DeepEqual(row.Rules, want[i].Rules) {
			t.Fatalf("row %d = %+v, want %+v", i, row, want[i])
		}
	}

	// Filtered query: one rule, limited.
	var someRule string
	for _, rc := range s.Count() {
		if rc.Count > 0 {
			someRule = rc.Rule
			break
		}
	}
	var qf queryResponse
	if code := getJSON(t, ts, "/v1/query?rule="+someRule+"&limit=1", &qf); code != http.StatusOK {
		t.Fatalf("filtered query status %d", code)
	}
	wantF := s.Query(session.ByRule(someRule), session.Limit(1))
	if qf.Count != len(wantF) || qf.Violations[0].Tuple != wantF[0].Tuple {
		t.Fatalf("filtered query = %+v, want %+v", qf.Violations, wantF)
	}

	var c countResponse
	if code := getJSON(t, ts, "/v1/count", &c); code != http.StatusOK {
		t.Fatalf("count status %d", code)
	}
	wantC := s.Count()
	if len(c.Rules) != len(wantC) {
		t.Fatalf("count has %d rules, want %d", len(c.Rules), len(wantC))
	}
	for i, rc := range c.Rules {
		if rc.Rule != wantC[i].Rule || rc.Count != wantC[i].Count {
			t.Fatalf("count[%d] = %+v, want %+v", i, rc, wantC[i])
		}
	}

	var m measuresResponse
	if code := getJSON(t, ts, "/v1/measures", &m); code != http.StatusOK {
		t.Fatalf("measures status %d", code)
	}
	wantM := s.Measures()
	if m.ViolatingTuples != wantM.ViolatingTuples || m.Marks != wantM.Marks ||
		m.Rows != wantM.Rows || m.TupleRatio != wantM.TupleRatio {
		t.Fatalf("measures = %+v, want %+v", m, wantM)
	}
}

// TestErrorStatuses pins the HTTP error mapping: unknown rule 404, bad
// params 400, wrong method 405.
func TestErrorStatuses(t *testing.T) {
	s, _, _ := fixture(t)
	// Retire a rule so "retired" and "never existed" can both be probed.
	rules := s.Rules()
	retired := rules[len(rules)-1].ID
	if _, err := s.RemoveRules(retired); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(s, Options{}))
	defer ts.Close()

	cases := []struct {
		path string
		want int
	}{
		{"/v1/query?rule=no-such-rule", http.StatusNotFound},
		{"/v1/query?rule=" + retired, http.StatusNotFound},
		{"/v1/query?tuple=xyz", http.StatusBadRequest},
		{"/v1/query?limit=ten", http.StatusBadRequest},
		{"/v1/query?limit=-3", http.StatusOK}, // negative limit = unlimited
	}
	for _, tc := range cases {
		var body map[string]any
		if code := getJSON(t, ts, tc.path, &body); code != tc.want {
			t.Errorf("GET %s = %d (%v), want %d", tc.path, code, body, tc.want)
		}
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/query = %d, want 405", resp.StatusCode)
	}
}

// TestWatchStream pins the NDJSON stream: events arrive as batches
// apply, in order, with epochs matching fresh point reads.
func TestWatchStream(t *testing.T) {
	s, gen, mirror := fixture(t)
	ts := httptest.NewServer(New(s, Options{}))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("watch content type %q", got)
	}
	sc := bufio.NewScanner(resp.Body)

	lastSeq := 0
	for i := 0; i < 3; i++ {
		applyBatch(t, s, gen, mirror)
		if !sc.Scan() {
			t.Fatalf("stream ended after %d events: %v", i, sc.Err())
		}
		var ev watchEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event %d: %v in %q", i, err, sc.Text())
		}
		if ev.Kind != "batch" || ev.Seq <= lastSeq || ev.Dropped != 0 || ev.Closed {
			t.Fatalf("event %d = %+v", i, ev)
		}
		lastSeq = ev.Seq
		if ev.Epoch != s.Epoch() {
			t.Fatalf("event %d: epoch %d, session at %d", i, ev.Epoch, s.Epoch())
		}
		if got := len(s.Query()); ev.Violations != got {
			t.Fatalf("event %d: violations %d, session has %d", i, ev.Violations, got)
		}
	}
}

// TestWatchAdmissionAndDrain pins bounded admission (503 past
// MaxStreams) and graceful drain (active streams get a terminal
// closed:true line; drained servers refuse new streams).
func TestWatchAdmissionAndDrain(t *testing.T) {
	s, _, _ := fixture(t)
	srv := New(s, Options{MaxStreams: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	first, err := ts.Client().Get(ts.URL + "/v1/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Body.Close()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first watch status %d", first.StatusCode)
	}

	// Admission is bounded: the second stream is refused.
	refusedBy := func(wantMsg string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/watch")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("over-limit watch status %d, want 503", resp.StatusCode)
		}
		var body errorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Error == "" {
			t.Fatalf("503 with empty error (want %s)", wantMsg)
		}
	}
	refusedBy("stream limit")

	// Drain: the active stream ends with the terminal line.
	done := make(chan watchEvent, 1)
	go func() {
		sc := bufio.NewScanner(first.Body)
		var last watchEvent
		for sc.Scan() {
			json.Unmarshal(sc.Bytes(), &last)
		}
		done <- last
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case last := <-done:
		if !last.Closed {
			t.Fatalf("stream did not end with closed:true (last %+v)", last)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drained stream did not end")
	}
	refusedBy("draining")

	// Point reads survive the drain.
	var q queryResponse
	if code := getJSON(t, ts, "/v1/query?limit=1", &q); code != http.StatusOK {
		t.Fatalf("post-drain query status %d", code)
	}
}

// TestWatchRetryAfter pins the Retry-After hint on both 503 admission
// paths: past MaxStreams and while draining.
func TestWatchRetryAfter(t *testing.T) {
	s, _, _ := fixture(t)
	srv := New(s, Options{MaxStreams: 1, RetryAfter: 2500 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	first, err := ts.Client().Get(ts.URL + "/v1/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Body.Close()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first watch status %d", first.StatusCode)
	}
	refused := func(when string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/watch")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: watch status %d, want 503", when, resp.StatusCode)
		}
		// 2.5s rounds up to whole seconds: the header must say 3.
		if got := resp.Header.Get("Retry-After"); got != "3" {
			t.Fatalf("%s: Retry-After %q, want \"3\"", when, got)
		}
	}
	refused("over limit")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	refused("draining")
}

// TestPointReadTimeout stalls the point-read path past ReadTimeout and
// checks every point endpoint answers an immediate JSON 503 with a
// Retry-After hint — then, unstalled, answers 200 again on the same
// server.
func TestPointReadTimeout(t *testing.T) {
	s, _, _ := fixture(t)
	srv := New(s, Options{ReadTimeout: 50 * time.Millisecond})
	release := make(chan struct{})
	srv.readHook = func() { <-release }
	ts := httptest.NewServer(srv)
	defer ts.Close()

	endpoints := []string{"/v1/query?limit=1", "/v1/count", "/v1/measures"}
	for _, path := range endpoints {
		start := time.Now()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET %s while stalled = %d, want 503", path, resp.StatusCode)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("GET %s: 503 took %v — timeout did not fire", path, elapsed)
		}
		if got := resp.Header.Get("Retry-After"); got != "1" {
			t.Fatalf("GET %s: Retry-After %q, want \"1\"", path, got)
		}
		var body errorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("GET %s: decode 503 body: %v", path, err)
		}
		resp.Body.Close()
		if body.Error == "" {
			t.Fatalf("GET %s: 503 with empty error", path)
		}
	}

	// Unstall: the stragglers drain harmlessly into their private
	// buffers and fresh requests answer 200.
	close(release)
	for _, path := range endpoints {
		var body map[string]any
		if code := getJSON(t, ts, path, &body); code != http.StatusOK {
			t.Fatalf("GET %s after release = %d, want 200", path, code)
		}
	}
}

// stallWriter is a streaming ResponseWriter whose body writes block
// until release is closed: a client that stopped reading, without
// relying on socket buffer sizes.
type stallWriter struct {
	http.ResponseWriter
	release <-chan struct{}
}

func (w stallWriter) Write(p []byte) (int, error) {
	<-w.release
	return w.ResponseWriter.Write(p)
}

func (w stallWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// TestWatchBackpressureGap stalls a subscriber below the session's
// event rate and checks the gap marker crosses the HTTP boundary.
func TestWatchBackpressureGap(t *testing.T) {
	s, gen, mirror := fixture(t)
	release := make(chan struct{})
	var once sync.Once
	unstall := func() { once.Do(func() { close(release) }) }
	defer unstall()
	srv := New(s, Options{StreamBuffer: 1})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(stallWriter{w, release}, r)
	}))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The handler takes the first event and blocks writing it; with a
	// buffer of 1 the subscription holds the second and must drop the
	// rest, so the next event delivered carries the gap.
	const batches = 5
	for i := 0; i < batches; i++ {
		applyBatch(t, s, gen, mirror)
	}
	unstall()
	sc := bufio.NewScanner(resp.Body)
	var sawGap bool
	deadline := time.Now().Add(5 * time.Second)
	for !sawGap && time.Now().Before(deadline) {
		applyBatch(t, s, gen, mirror) // keep events coming
		if !sc.Scan() {
			t.Fatalf("stream ended: %v", sc.Err())
		}
		var ev watchEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		sawGap = ev.Dropped > 0
	}
	if !sawGap {
		t.Fatal("no gap marker surfaced over a stalled stream")
	}
}
