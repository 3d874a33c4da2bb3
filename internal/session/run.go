package session

// The continuous update pipeline: Run drives the session's engine with a
// timed sequence of batch updates ∆D₁, ∆D₂, … and meters every batch as
// it lands — ∆V size, maintained |V|, wire traffic, apply latency and
// queueing delay. The paper's claim (§4–§6) is that incremental detection
// stays O(|∆D| + |∆V|) per batch regardless of |D|; a stream is where
// that claim earns its keep, because violations must be continuously
// correct — after every batch, not just at the end. Production shape: a
// producer goroutine emits batches (optionally honoring the stream's
// simulated arrival gaps) into a bounded arrival queue; the writer
// applies them in order and publishes per-batch results.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cfd"
	"repro/internal/journal"
	"repro/internal/network"
	"repro/internal/relation"
	"repro/internal/workload"
	"repro/internal/xerr"
)

// runQueue is Run's arrival-queue depth: how many batches the producer
// may run ahead of the writer before it blocks (back-pressure). A few
// absorb a burst's arrivals while one batch applies; a deeper queue
// would only hide a writer that cannot keep up.
const runQueue = 4

// Source yields successive stream batches. workload.Stream is the
// canonical implementation.
type Source interface {
	Next() (workload.Batch, bool)
}

// RunOptions tunes Run.
type RunOptions struct {
	// Realtime makes the producer honor each batch's simulated arrival
	// gap by sleeping before enqueueing it. Off, batches arrive
	// back-to-back and Gap is carried through for reporting only.
	Realtime bool
	// OnBatch, when set, is invoked synchronously from the writer
	// goroutine after each batch, with the batch itself, its result,
	// and the Snapshot of the epoch the batch published — the one
	// Session.Snapshot returned right after it. The snapshot is
	// immutable and remains valid after the call returns.
	OnBatch func(workload.Batch, BatchResult, Snapshot)
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
	// this batch caused (a window over the session's meters).
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
	// Net is the canonical end-to-end change cfd.DeltaBetween(V₀, V),
	// depending only on the violation sets at Run's entry and exit.
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

// arrival is one queued batch with its enqueue timestamp.
type arrival struct {
	b  workload.Batch
	at time.Time
}

// Run pumps a batch source through the session's engine, metering every
// batch, until the source is exhausted or ctx is cancelled. Cancellation
// stops the producer and drains the arrival queue cleanly (no batch is
// half-applied: the check sits between batches) and returns ctx's error.
// Every applied batch is also published to subscribers. Run holds
// the writer lock for the whole stream, so batches from two writers never
// interleave; the state lock is taken per batch, so concurrent reads
// (Query, Count, Measures, Snapshot) keep serving the latest applied
// epoch throughout.
func (s *Session) Run(ctx context.Context, src Source, opts RunOptions) (*Summary, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("session: Run: %w", xerr.ErrClosed)
	}
	v0 := s.eng.Violations().Clone()
	prev := s.statsLocked()
	s.mu.Unlock()
	sum := &Summary{}

	arrivals := make(chan arrival, runQueue)
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
			b, ok := src.Next()
			if !ok {
				return
			}
			if opts.Realtime && b.Gap > 0 {
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
		r, snap, err := s.runBatch(arr, &prev)
		if err != nil {
			drain()
			return nil, err
		}
		sum.Batches++
		sum.Updates += r.Size
		sum.Inserts += r.Inserts
		sum.Deletes += r.Deletes
		sum.WireBytes += r.WireBytes
		sum.WireMessages += r.WireMessages
		sum.Eqids += r.Eqids
		sum.Results = append(sum.Results, r)
		if opts.OnBatch != nil {
			opts.OnBatch(arr.b, r, snap)
		}
	}
	if cancelled {
		// The producer saw the cancellation first and the queue was empty.
		return nil, ctx.Err()
	}
	sum.Elapsed = time.Since(start)

	s.mu.Lock()
	defer s.mu.Unlock()
	final := s.eng.Violations()
	sum.Net = cfd.DeltaBetween(v0, final)
	sum.Violations, sum.Marks = final.Len(), final.Marks()
	return sum, nil
}

// runBatch applies one queued batch under the state lock and meters it
// against prev, the meters after the previous batch (advanced here). It
// returns the Snapshot of the epoch the batch published, for OnBatch,
// which runs after the lock is released.
func (s *Session) runBatch(arr arrival, prev *network.Stats) (BatchResult, Snapshot, error) {
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
	s.mu.Lock()
	defer s.mu.Unlock()
	t0 := time.Now()
	delta, err := s.writeLocked(pendingOp{op: journal.OpBatch, updates: arr.b.Updates.Normalize()})
	if err != nil {
		return r, Snapshot{}, fmt.Errorf("session: Run: batch %d: %w", arr.b.Seq, err)
	}
	r.Apply = time.Since(t0)
	now := s.statsLocked()
	w := now.Sub(*prev)
	*prev = now
	r.WireBytes, r.WireMessages, r.Eqids = w.Bytes, w.Messages, w.Eqids
	r.AddedMarks, r.RemovedMarks = delta.AddedMarks(), delta.RemovedMarks()
	snap := s.Snapshot()
	r.Violations, r.Marks = snap.st.view.Len(), snap.st.view.Marks()
	return r, snap, nil
}
