package workload

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/relation"
)

// Profile names the arrival shape of a generated update stream. The
// paper evaluates one-shot batches ∆D; a stream is the sustained version
// of the same workload — a sequence ∆D₁, ∆D₂, … whose composition and
// pacing follow one of three shapes observed in real update traffic.
type Profile string

const (
	// Churn is steady-state traffic: every batch has the nominal size,
	// deletions pick uniformly over all live tuples.
	Churn Profile = "churn"
	// Skew is recency-biased traffic: deletions strongly prefer
	// recently inserted tuples, so equivalence groups touched by the
	// stream keep being re-touched (hot keys).
	Skew Profile = "skew"
	// Burst is bursty traffic: three quiet batches at a quarter of the
	// nominal size, then one 3¼× burst arriving after an eighth of the
	// nominal gap. Total volume per period matches Churn.
	Burst Profile = "burst"
)

// StreamConfig parameterizes NewStream. Zero values select defaults.
type StreamConfig struct {
	// Profile is the arrival shape; default Churn.
	Profile Profile
	// BatchSize is the nominal number of updates per batch (Burst
	// modulates it per batch); default 100.
	BatchSize int
	// Batches is the stream length; default 10.
	Batches int
	// InsFrac is the insertion fraction of each batch (the rest are
	// deletions). The zero value selects the default 0.7; a negative
	// value requests an all-deletion stream (InsFrac 0 is otherwise
	// unreachable through the zero-value default); values above 1
	// clamp to all-insertions.
	InsFrac float64
	// Gap is the nominal simulated inter-arrival time between batches
	// (Burst modulates it); zero means back-to-back.
	Gap time.Duration
	// Seed drives batch composition. It is deliberately separate from
	// the generator's seed so one base relation can carry many distinct
	// streams.
	Seed int64
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Profile == "" {
		c.Profile = Churn
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 100
	}
	if c.Batches <= 0 {
		c.Batches = 10
	}
	if c.InsFrac == 0 {
		c.InsFrac = 0.7
	}
	if c.InsFrac < 0 {
		c.InsFrac = 0
	}
	if c.InsFrac > 1 {
		c.InsFrac = 1
	}
	return c
}

// Batch is one element of an update stream: ∆Dᵢ plus its simulated
// arrival gap since the previous batch.
type Batch struct {
	// Seq numbers batches from 0.
	Seq int
	// Updates is ∆Dᵢ, applicable in order to D ⊕ ∆D₁ ⊕ … ⊕ ∆Dᵢ₋₁.
	Updates relation.UpdateList
	// Gap is the simulated time between the previous batch's arrival
	// and this one's.
	Gap time.Duration
}

// Stream produces a deterministic, finite sequence of batches against a
// base relation: every batch is applicable (insertions are fresh ids,
// deletions reference tuples live at that point, with full values) and
// the whole sequence is a pure function of (generator state, config).
// The same generator seed, base relation and config always reproduce the
// same stream — the property the differential tests and the Exp-stream
// suite of BENCH_exact.json rely on.
type Stream struct {
	gen *Generator
	cfg StreamConfig
	rng *rand.Rand

	// live holds the currently live tuple ids in insertion-recency
	// order (base relation first, then stream inserts); byID carries
	// their full values, because deletions ship whole tuples.
	live []relation.TupleID
	byID map[relation.TupleID]relation.Tuple

	seq int
}

// NewStream returns a stream of cfg.Batches batches over rel, drawing
// fresh tuples from gen. The relation is snapshotted (ids and values);
// the caller may apply the batches to rel or any copy of it.
func NewStream(gen *Generator, rel *relation.Relation, cfg StreamConfig) *Stream {
	cfg = cfg.withDefaults()
	s := &Stream{
		gen:  gen,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed ^ 0x57AE)),
		byID: make(map[relation.TupleID]relation.Tuple, rel.Len()),
	}
	s.live = append(s.live, rel.IDs()...)
	rel.Each(func(t relation.Tuple) bool {
		s.byID[t.ID] = t
		return true
	})
	return s
}

// Config returns the effective configuration (defaults resolved).
func (s *Stream) Config() StreamConfig { return s.cfg }

// Next returns the next batch, or ok=false when the stream is exhausted.
func (s *Stream) Next() (Batch, bool) {
	if s.seq >= s.cfg.Batches {
		return Batch{}, false
	}
	size, gap := s.shape(s.seq)
	b := Batch{Seq: s.seq, Gap: gap}
	for i := 0; i < size; i++ {
		if s.rng.Float64() < s.cfg.InsFrac || len(s.live) == 0 {
			t := s.gen.Next()
			s.byID[t.ID] = t
			s.live = append(s.live, t.ID)
			b.Updates = append(b.Updates, relation.Update{Kind: relation.Insert, Tuple: t})
			continue
		}
		k := s.pickVictim()
		id := s.live[k]
		if s.cfg.Profile == Skew {
			// Ordered removal keeps live in recency order, which
			// Skew's victim bias depends on.
			s.live = append(s.live[:k], s.live[k+1:]...)
		} else {
			// Uniform victims don't need the order: O(1) swap-remove.
			s.live[k] = s.live[len(s.live)-1]
			s.live = s.live[:len(s.live)-1]
		}
		t := s.byID[id]
		delete(s.byID, id)
		b.Updates = append(b.Updates, relation.Update{Kind: relation.Delete, Tuple: t})
	}
	s.seq++
	return b, true
}

// shape returns the (size, gap) of batch seq under the profile.
func (s *Stream) shape(seq int) (int, time.Duration) {
	size, gap := s.cfg.BatchSize, s.cfg.Gap
	if s.cfg.Profile != Burst {
		return size, gap
	}
	// Period of 4: three quiet batches at ¼ volume, then the burst
	// carrying the rest of the period's volume on a compressed gap.
	quiet := size / 4
	if quiet < 1 {
		quiet = 1
	}
	if seq%4 == 3 {
		burst := 4*size - 3*quiet
		return burst, gap / 8
	}
	return quiet, gap
}

// pickVictim returns the live index of the next deletion target.
func (s *Stream) pickVictim() int {
	n := len(s.live)
	if s.cfg.Profile != Skew {
		return s.rng.Intn(n)
	}
	// Cubing the uniform draw concentrates it near 0; offsetting from
	// the tail makes recent inserts ~8× likelier victims than the head.
	u := s.rng.Float64()
	k := n - 1 - int(u*u*u*float64(n))
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// Collect drains the stream and returns all remaining batches.
func (s *Stream) Collect() []Batch {
	var out []Batch
	for {
		b, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, b)
	}
}

// Concat flattens batches into one UpdateList, the one-shot ∆D whose
// single incremental application must land on the same final violation
// set as the per-batch stream (the pipeline's conservation law).
func Concat(batches []Batch) relation.UpdateList {
	var out relation.UpdateList
	for _, b := range batches {
		out = append(out, b.Updates...)
	}
	return out
}

// Profiles lists the stream profiles in canonical order.
func Profiles() []Profile { return []Profile{Churn, Skew, Burst} }

// ParseProfile resolves a profile name.
func ParseProfile(name string) (Profile, error) {
	switch Profile(name) {
	case Churn, Skew, Burst:
		return Profile(name), nil
	default:
		return "", fmt.Errorf("workload: unknown stream profile %q (want churn, skew or burst)", name)
	}
}
