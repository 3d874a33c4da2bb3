package main

import (
	"math/rand"

	"repro/internal/relation"
	"repro/internal/workload"
)

// updates is the benchmark's update stream ∆D₁, ∆D₂, …: fresh tuples
// from the generator in, live tuples out, strictly alternating, so |D|
// stays exactly level. workload.Stream draws each update's kind with a
// coin instead; over the tens of thousands of updates of a run |D| then
// wanders by ±√n — about ±13 % of a 1 000-row relation — and live heap
// and per-batch cost wander with it, by more than any bound. Victims
// follow workload.Stream's two profiles: Churn picks uniformly over the
// live tuples, Skew strongly prefers recently inserted ones, so the
// groups the stream touches keep being re-touched.
type updates struct {
	gen  *workload.Generator
	rng  *rand.Rand
	skew bool

	// live holds the live tuple ids, in insertion-recency order under
	// Skew; byID their values, because deletions ship whole tuples.
	live []relation.TupleID
	byID map[relation.TupleID]relation.Tuple

	deleteNext bool
}

func newUpdates(gen *workload.Generator, rel *relation.Relation, profile workload.Profile, seed int64) *updates {
	u := &updates{
		gen:  gen,
		rng:  rand.New(rand.NewSource(seed)),
		skew: profile == workload.Skew,
		live: append([]relation.TupleID(nil), rel.IDs()...),
		byID: make(map[relation.TupleID]relation.Tuple, rel.Len()),
	}
	rel.Each(func(t relation.Tuple) bool {
		u.byID[t.ID] = t
		return true
	})
	return u
}

// next returns the next batch of n updates, applicable in order to D
// with every earlier batch applied.
func (u *updates) next(n int) relation.UpdateList {
	batch := make(relation.UpdateList, 0, n)
	for i := 0; i < n; i++ {
		if u.deleteNext {
			batch = append(batch, relation.Update{Kind: relation.Delete, Tuple: u.remove()})
		} else {
			t := u.gen.Next()
			u.byID[t.ID] = t
			u.live = append(u.live, t.ID)
			batch = append(batch, relation.Update{Kind: relation.Insert, Tuple: t})
		}
		u.deleteNext = !u.deleteNext
	}
	return batch
}

// remove picks the next victim and takes it out of the live set.
func (u *updates) remove() relation.Tuple {
	n := len(u.live)
	var id relation.TupleID
	if u.skew {
		// Cubing the draw and counting from the tail makes recent inserts
		// about 8× likelier victims than the head; ordered removal keeps
		// live in recency order.
		f := u.rng.Float64()
		k := n - 1 - int(f*f*f*float64(n))
		id = u.live[k]
		u.live = append(u.live[:k], u.live[k+1:]...)
	} else {
		k := u.rng.Intn(n)
		id = u.live[k]
		u.live[k] = u.live[n-1]
		u.live = u.live[:n-1]
	}
	t := u.byID[id]
	delete(u.byID, id)
	return t
}
