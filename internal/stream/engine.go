package stream

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/relation"
	"repro/internal/workload"
)

// Options tunes an Engine.
type Options struct {
	// Buffer is the arrival-queue depth: how many batches the producer
	// may run ahead of the applier before it blocks (back-pressure).
	// Default 4.
	Buffer int
	// Realtime makes the producer honor each batch's simulated arrival
	// gap by sleeping before enqueueing it. Off, batches arrive
	// back-to-back and Gap is carried through for reporting only.
	Realtime bool
	// OnBatch, when set, is invoked synchronously from the applier
	// goroutine after each batch, with the batch itself, its result,
	// and a frozen epoch snapshot of the maintained violation set. The
	// snapshot is immutable and remains valid after the call returns.
	OnBatch func(workload.Batch, BatchResult, *cfd.Violations)
}

// BatchResult meters one applied batch.
type BatchResult struct {
	// Seq is the batch's stream sequence number.
	Seq int
	// Size, Inserts and Deletes count the batch's updates.
	Size, Inserts, Deletes int
	// AddedMarks and RemovedMarks size this batch's ∆V.
	AddedMarks, RemovedMarks int
	// Violations and Marks are |V| (tuples) and total violation marks
	// after the batch.
	Violations, Marks int
	// WireBytes, WireMessages and Eqids are the cross-site traffic
	// this batch caused (a window over the engine's meters).
	WireBytes, WireMessages, Eqids int64
	// Gap is the batch's simulated arrival gap (from the source).
	Gap time.Duration
	// Queue is the time the batch waited in the arrival queue.
	Queue time.Duration
	// Apply is the batch's apply latency.
	Apply time.Duration
}

// Summary aggregates one stream run.
type Summary struct {
	// Batches, Updates, Inserts and Deletes count the applied stream.
	Batches, Updates, Inserts, Deletes int
	// Raw is the merge of every batch's returned ∆V, in replay
	// semantics: the delta the engine would ship to a downstream
	// subscriber.
	Raw *cfd.Delta
	// Net is the canonical end-to-end change cfd.DeltaBetween(V₀, V),
	// depending only on the initial and final violation sets.
	Net *cfd.Delta
	// Violations and Marks describe the final maintained set.
	Violations, Marks int
	// WireBytes, WireMessages and Eqids total the cross-site traffic
	// of the whole stream.
	WireBytes, WireMessages, Eqids int64
	// Elapsed is wall-clock time from first arrival to last apply.
	Elapsed time.Duration
	// Results holds every batch's meters, in order.
	Results []BatchResult
}

// Engine pumps a Source through an Applier: a producer goroutine emits
// batches into a bounded arrival queue (simulating continuous traffic),
// the calling goroutine applies them in order and meters each one. The
// Applier is only ever touched from the applying goroutine, so engines
// need no internal locking.
type Engine struct {
	a    Applier
	src  Source
	opts Options
	ran  bool
}

// NewEngine returns a one-shot engine over a (fresh) applier and source.
func NewEngine(a Applier, src Source, opts Options) *Engine {
	if opts.Buffer <= 0 {
		opts.Buffer = 4
	}
	return &Engine{a: a, src: src, opts: opts}
}

// arrival is one queued batch with its enqueue timestamp.
type arrival struct {
	b  workload.Batch
	at time.Time
}

// Run drains the source through the applier and returns the stream
// summary. It must be called at most once per engine: the summary's
// deltas are anchored to the applier's violation state at entry.
func (e *Engine) Run() (*Summary, error) {
	return e.RunContext(context.Background())
}

// RunContext is Run under a context. Cancellation stops the producer,
// drains the arrival queue cleanly (no batch is half-applied: the check
// sits between batches) and returns ctx's error. The engine owns no site
// goroutines — those belong to the applier's transport, which the
// session layer tears down on Close.
func (e *Engine) RunContext(ctx context.Context) (*Summary, error) {
	if e.ran {
		return nil, fmt.Errorf("stream: engine already ran")
	}
	e.ran = true

	v0 := e.a.Violations().Clone()
	prev := e.a.Stats()
	sum := &Summary{Raw: cfd.NewDelta()}

	arrivals := make(chan arrival, e.opts.Buffer)
	stop := make(chan struct{})
	// cancelled is the producer's: set before it closes arrivals, read
	// after the channel has drained.
	cancelled := false
	drain := func() {
		close(stop)
		for range arrivals { // unblock and run off the producer
		}
	}
	go func() {
		defer close(arrivals)
		for {
			b, ok := e.src.Next()
			if !ok {
				return
			}
			if e.opts.Realtime && b.Gap > 0 {
				t := time.NewTimer(b.Gap)
				select {
				case <-t.C:
				case <-stop:
					t.Stop()
					return
				case <-ctx.Done():
					t.Stop()
					cancelled = true
					return
				}
			}
			select {
			case arrivals <- arrival{b: b, at: time.Now()}:
			case <-stop:
				return
			case <-ctx.Done():
				cancelled = true
				return
			}
		}
	}()

	start := time.Now()
	for arr := range arrivals {
		if err := ctx.Err(); err != nil {
			drain()
			return nil, err
		}
		res, err := e.applyOne(arr, prev)
		if err != nil {
			drain()
			return nil, err
		}
		prev = e.a.Stats()
		sum.Batches++
		sum.Updates += res.r.Size
		sum.Inserts += res.r.Inserts
		sum.Deletes += res.r.Deletes
		sum.WireBytes += res.r.WireBytes
		sum.WireMessages += res.r.WireMessages
		sum.Eqids += res.r.Eqids
		sum.Raw.Merge(res.delta)
		sum.Results = append(sum.Results, res.r)
		if e.opts.OnBatch != nil {
			e.opts.OnBatch(arr.b, res.r, e.a.Violations().Snapshot())
		}
	}
	if cancelled {
		// The producer saw the cancellation first and the queue was empty.
		return nil, ctx.Err()
	}
	sum.Elapsed = time.Since(start)

	final := e.a.Violations()
	sum.Net = cfd.DeltaBetween(v0, final)
	sum.Violations = final.Len()
	sum.Marks = final.Marks()
	return sum, nil
}

// applied carries one batch's result plus its raw ∆V.
type applied struct {
	r     BatchResult
	delta *cfd.Delta
}

func (e *Engine) applyOne(arr arrival, prev network.Stats) (applied, error) {
	r := BatchResult{
		Seq:   arr.b.Seq,
		Size:  len(arr.b.Updates),
		Gap:   arr.b.Gap,
		Queue: time.Since(arr.at),
	}
	for _, u := range arr.b.Updates {
		if u.Kind == relation.Insert {
			r.Inserts++
		} else {
			r.Deletes++
		}
	}
	t0 := time.Now()
	delta, err := e.a.ApplyBatch(arr.b.Updates)
	if err != nil {
		return applied{}, fmt.Errorf("stream: batch %d: %w", arr.b.Seq, err)
	}
	r.Apply = time.Since(t0)
	w := e.a.Stats().Sub(prev)
	r.WireBytes, r.WireMessages, r.Eqids = w.Bytes, w.Messages, w.Eqids
	r.AddedMarks, r.RemovedMarks = delta.AddedMarks(), delta.RemovedMarks()
	v := e.a.Violations()
	r.Violations, r.Marks = v.Len(), v.Marks()
	return applied{r: r, delta: delta}, nil
}

// Run is the convenience wrapper: build an engine and run it.
func Run(a Applier, src Source, opts Options) (*Summary, error) {
	return NewEngine(a, src, opts).Run()
}

// RunCtx is Run under a context (see Engine.RunContext).
func RunCtx(ctx context.Context, a Applier, src Source, opts Options) (*Summary, error) {
	return NewEngine(a, src, opts).RunContext(ctx)
}
