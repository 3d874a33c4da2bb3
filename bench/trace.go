package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Spans are recorded only from bench/ files, around the
// public calls into each layer; nothing inside the program is touched.
const (
	spanOpen      = "open"           // root: one session.Open
	spanResume    = "resume"         // root: the Open that resumes over the journal
	spanApply     = "apply"          // root: one Session.ApplyBatch
	spanWrite     = "wire.write"     // driver blocked in conn Write
	spanWait      = "wire.wait"      // driver blocked in conn Read
	spanRecv      = "site.recv"      // driver starts writing → site holds the decoded call
	spanDispatch  = "site.dispatch"  // Host.Dispatch of a protocol method
	spanChkMark   = "site.chk_mark"  // Host.Dispatch of chk.mark
	spanSend      = "site.send"      // site encodes and writes the reply
	spanBootstrap = "site.bootstrap" // Host.Bootstrap of a hello
)

// span is one recorded interval. Seq is the batch sequence number every
// span of one ApplyBatch shares (-1 during Open); Parent is the span
// that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Seq    int64  `json:"seq"`
	Name   string `json:"name"`
	Site   int    `json:"site"` // -1 on the driver
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start"` // ns since the recorder was made
	End    int64  `json:"end"`
	// Compacting marks a chk.mark that wrote a full snapshot.
	Compacting bool `json:"compacting,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once, at exit.
// When off, every hook is a single atomic load.
type recorder struct {
	t0 time.Time
	on atomic.Bool

	nextID atomic.Int64
	root   atomic.Int64 // current root span (the causing apply/open)
	seq    atomic.Int64 // current batch sequence number

	// cause[i] is the driver's latest write span to site i: the span
	// that caused whatever site i does next. sentAt[i] is when that
	// write began.
	cause  []atomic.Int64
	sentAt []atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder(sites int) *recorder {
	r := &recorder{t0: time.Now(), cause: make([]atomic.Int64, sites), sentAt: make([]atomic.Int64, sites)}
	r.seq.Store(-1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// add records a finished span under the current batch sequence number,
// giving it an id unless the caller reserved one.
func (r *recorder) add(s span) {
	if s.ID == 0 {
		s.ID = r.nextID.Add(1)
	}
	s.Seq = r.seq.Load()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// beginRoot opens a root span for batch seq; the returned func closes it.
func (r *recorder) beginRoot(name string, seq int64) func() {
	id := r.nextID.Add(1)
	r.seq.Store(seq)
	r.root.Store(id)
	start := r.now()
	return func() {
		end := r.now()
		r.mu.Lock()
		r.spans = append(r.spans, span{ID: id, Seq: seq, Name: name, Site: -1, Start: start, End: end})
		r.mu.Unlock()
		r.root.Store(0)
	}
}

// covered is the length of the union of the children's intervals clipped
// to [start, end]. Children of a fan-out overlap, so their durations
// cannot simply be added.
func covered(start, end int64, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := c.Start, c.End
		if s < start {
			s = start
		}
		if e > end {
			e = end
		}
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		if x[1] > curE {
			curE = x[1]
		}
	}
	return total + curE - curS
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent span, children []span) int64 {
	return parent.dur() - covered(parent.Start, parent.End, children)
}

// traceFile is what a traced run writes at exit. Spans are flat; the
// tree is rebuilt from id/parent. A long run records more spans than are
// worth writing, so the file keeps the first maxSpansWritten and says
// how many there were.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Unit     string `json:"unit"`
	Recorded int    `json:"spans_recorded"`
	Written  int    `json:"spans_written"`
	Spans    []span `json:"spans"`
}

const maxSpansWritten = 200_000

func (r *recorder) write(path, workload string, seed int64) error {
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	n := len(spans)
	if n > maxSpansWritten {
		n = maxSpansWritten
	}
	out := traceFile{Workload: workload, Seed: seed, Unit: "ns", Recorded: len(spans), Written: n, Spans: spans[:n]}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(out); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
