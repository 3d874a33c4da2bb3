package session

import (
	"sync/atomic"

	"repro/internal/cfd"
)

// EventKind says what produced a subscription event.
type EventKind int

const (
	// EventBatch is an applied update batch (ApplyBatch or one stream
	// batch under Run).
	EventBatch EventKind = iota
	// EventRulesAdded is an AddRules seed-delta.
	EventRulesAdded
	// EventRulesRemoved is a RemoveRules retirement delta.
	EventRulesRemoved
)

// Event is one published change to the maintained violation set.
type Event struct {
	// Seq numbers the session's events from 1. Seq is global: every
	// subscriber sees the same numbering, so a gap in the Seqs a
	// subscriber receives identifies exactly which events it missed.
	Seq int
	// Epoch is the violation-set epoch this event produced; a
	// Session.Snapshot taken at the same epoch shows exactly the state
	// after this event.
	Epoch uint64
	// Kind says what produced the delta.
	Kind EventKind
	// Delta is the change's ∆V. Subscribers must treat it as read-only;
	// it is shared with the caller of the producing operation.
	Delta *cfd.Delta
	// Violations and Marks are |V| (tuples) and total marks after the
	// change.
	Violations, Marks int
	// Dropped counts the events this subscription missed immediately
	// before this one because its buffer was full. When Dropped > 0 the
	// subscriber has a gap of exactly that many Seqs and should resync
	// from a fresh Snapshot rather than assume a contiguous delta
	// stream.
	Dropped uint64
}

// Subscription is one subscriber to the session's ∆V stream, and the
// only subscription handle there is. Events are delivered on C;
// when the subscriber's buffer is full the session drops the event
// rather than blocking detection, and the next delivered event carries
// the gap in its Dropped field.
type Subscription struct {
	s  *Session
	id int
	ch chan Event

	// gap counts drops since the last successful delivery; s.mu.
	gap uint64
	// dropped is the running total of dropped events, readable without
	// the session lock.
	dropped atomic.Uint64
}

// C is the event channel. It is closed by Cancel or Session.Close.
func (sub *Subscription) C() <-chan Event { return sub.ch }

// Dropped reports the total number of events this subscription has
// missed so far because its buffer was full.
func (sub *Subscription) Dropped() uint64 { return sub.dropped.Load() }

// Cancel unsubscribes and closes the channel. Idempotent.
func (sub *Subscription) Cancel() {
	s := sub.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if w, ok := s.watchers[sub.id]; ok && w == sub {
		delete(s.watchers, sub.id)
		close(sub.ch)
	}
}

// Subscribe registers a subscriber with the given channel depth (min 1)
// and returns its handle. Every ApplyBatch, stream batch under Run,
// AddRules and RemoveRules publishes one event. A subscriber that falls
// behind misses events rather than blocking detection — a subscription
// is a monitoring surface, not a replication log — but never silently:
// missed events surface in the next event's Dropped gap, the
// subscription's Dropped() total, and the global Seq numbering.
func (s *Session) Subscribe(buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	sub := &Subscription{s: s, ch: make(chan Event, buffer)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		close(sub.ch)
		sub.id = -1
		return sub
	}
	sub.id = s.nextW
	s.nextW++
	s.watchers[sub.id] = sub
	return sub
}

// publish fans an event out to every subscriber. Callers hold s.mu and
// pass the epoch view just published for this change, so the event's
// counters match its epoch exactly.
func (s *Session) publish(kind EventKind, delta *cfd.Delta, view *cfd.EpochView) {
	s.seq++
	if len(s.watchers) == 0 {
		return
	}
	ev := Event{
		Seq:        s.seq,
		Epoch:      view.Epoch(),
		Kind:       kind,
		Delta:      delta,
		Violations: view.Len(),
		Marks:      view.Marks(),
	}
	for _, w := range s.watchers {
		ev.Dropped = w.gap
		select {
		case w.ch <- ev:
			w.gap = 0
		default: // slow subscriber: drop, and mark the gap
			w.gap++
			w.dropped.Add(1)
		}
	}
}
