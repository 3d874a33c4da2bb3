// Package stream is the continuous update pipeline: it drives a
// detection engine with a timed sequence of batch updates ∆D₁, ∆D₂, …
// instead of the single one-shot batch the experiment harness applies,
// and meters every batch as it lands — ∆V size, maintained |V|, wire
// traffic, apply latency and queueing delay.
//
// The paper's core claim (§4–§6) is that incremental detection stays
// O(|∆D| + |∆V|) per batch regardless of |D|; a stream is where that
// claim earns its keep, because violations must be *continuously*
// correct — after every batch, not just at the end. The differential
// tests in this package pin exactly that invariant: after each applied
// batch, the maintained violation set of every engine equals a fresh
// centralized detection over the same data.
//
// The pipeline is deliberately engine-agnostic: anything implementing
// Applier — the centralized single-site maintainer, the vertical incVer
// system, the horizontal incHor system — plugs in unchanged. Production
// shape: a producer goroutine emits batches (optionally honoring the
// stream's simulated arrival gaps) into a bounded arrival queue; the
// consumer applies them in order and publishes per-batch results.
package stream

import (
	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/relation"
	"repro/internal/workload"
)

// Applier is the narrow engine surface the pipeline drives: apply one
// batch, expose the maintained violation set and the wire meters. Both
// distributed systems satisfy it through core.Detector; Centralized
// adapts the single-site maintainer.
type Applier interface {
	// ApplyBatch applies ∆D incrementally, maintaining V(Σ, D) and
	// returning ∆V.
	ApplyBatch(relation.UpdateList) (*cfd.Delta, error)
	// Violations returns the maintained violation set.
	Violations() *cfd.Violations
	// Stats returns the cumulative communication meters.
	Stats() network.Stats
}

// Every core.Detector is an Applier.
var _ Applier = (core.Detector)(nil)

// Source yields successive stream batches. workload.Stream is the
// canonical implementation; tests substitute fixed slices.
type Source interface {
	Next() (workload.Batch, bool)
}

// Batches adapts a pre-materialized batch slice into a Source.
func Batches(bs []workload.Batch) Source { return &sliceSource{bs: bs} }

type sliceSource struct {
	bs []workload.Batch
	i  int
}

func (s *sliceSource) Next() (workload.Batch, bool) {
	if s.i >= len(s.bs) {
		return workload.Batch{}, false
	}
	b := s.bs[s.i]
	s.i++
	return b, true
}

// Centralized adapts the single-site incremental maintainer
// (centralized.Incremental) to the Applier interface. Its wire meters
// are identically zero: nothing crosses a site boundary.
type Centralized struct {
	inc *centralized.Incremental
}

// NewCentralized indexes rel and computes the initial V(Σ, D); rel
// itself is not mutated by subsequent batches.
func NewCentralized(rel *relation.Relation, rules []cfd.CFD) (*Centralized, error) {
	inc, err := centralized.NewIncremental(rel, rules)
	if err != nil {
		return nil, err
	}
	return &Centralized{inc: inc}, nil
}

// NewCentralizedStored is NewCentralized with the maintainer's tuples
// and grouping indexes behind the given stores (centralized.NewIncrementalStored), bounding resident memory
// by their page-cache budgets instead of |D|.
func NewCentralizedStored(rel *relation.Relation, rules []cfd.CFD, st centralized.Storage) (*Centralized, error) {
	inc, err := centralized.NewIncrementalStored(rel, rules, st)
	if err != nil {
		return nil, err
	}
	return &Centralized{inc: inc}, nil
}

// Maintainer exposes the underlying incremental maintainer (for storage
// stats and flush control of stored engines).
func (c *Centralized) Maintainer() *centralized.Incremental { return c.inc }

// ApplyBatch applies ∆D through the Fig. 4 case analysis.
func (c *Centralized) ApplyBatch(updates relation.UpdateList) (*cfd.Delta, error) {
	return c.inc.Apply(updates)
}

// Violations returns the maintained violation set.
func (c *Centralized) Violations() *cfd.Violations { return c.inc.Violations() }

// Stats returns zeroed meters: a single site ships nothing.
func (c *Centralized) Stats() network.Stats { return network.Stats{} }

// AddRules brings new rules into force, seeding only their marks; the
// single-site maintainer is the oracle for the distributed engines'
// seed-delta rounds.
func (c *Centralized) AddRules(rules []cfd.CFD) (*cfd.Delta, error) {
	return c.inc.AddRules(rules)
}

// RemoveRules retires rules by id, dropping their marks.
func (c *Centralized) RemoveRules(ids []string) (*cfd.Delta, error) {
	return c.inc.RemoveRules(ids)
}

// Rules returns the rule set in force.
func (c *Centralized) Rules() []cfd.CFD { return c.inc.Rules() }

// BatchDetect recomputes V(Σ, D) from scratch over the maintained
// relation — the centralized batch baseline.
func (c *Centralized) BatchDetect() (*cfd.Violations, error) {
	return centralized.Detect(c.inc.Relation(), c.inc.Rules()), nil
}

var _ Applier = (*Centralized)(nil)
