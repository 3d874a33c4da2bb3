// Package core ties the paper's pieces into one façade: a Detector
// interface satisfied by both partition styles, and constructors that go
// from a relation + partition scheme + rule set to a running, seeded
// incremental detection system. session.Open builds every distributed
// engine through them, and the root repro package re-exports Detector.
//
// A Detector owns a network.Cluster whose meters (messages, bytes,
// eqids) are zero right after construction — seeding is never charged —
// and whose knobs (transport, fan-out worker cap, simulated link RTT)
// tune how the distributed simulation executes without changing what it
// computes or ships. Use NewVertical for §4/§5's incVer+optVer over a
// vertical partition, NewHorizontal for §6's incHor over a horizontal
// one.
package core

import (
	"repro/internal/cfd"
	"repro/internal/horizontal"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/vertical"
)

// Detector is a seeded, distributed CFD violation detection system over
// one partitioned relation. Implementations maintain V(Σ, D) across
// incremental batches and can recompute it batch-style for comparison.
type Detector interface {
	// ApplyBatch runs the incremental algorithm (incVer or incHor) on a
	// batch update ∆D, maintaining V(Σ, D) and returning ∆V.
	ApplyBatch(relation.UpdateList) (*cfd.Delta, error)
	// BatchDetect recomputes the violations from the current fragments
	// with the batch baseline (batVer or batHor).
	BatchDetect() (*cfd.Violations, error)
	// Violations returns the maintained violation set.
	Violations() *cfd.Violations
	// Stats returns the communication meters since the last reset.
	Stats() network.Stats
	// Cluster exposes the message fabric.
	Cluster() *network.Cluster
	// Rules returns the rule set in force.
	Rules() []cfd.CFD
	// AddRules brings new rules into force without rebuilding the
	// system: only the new rules' per-site state and violation marks are
	// seeded, through metered seed-delta rounds. Returns the seeded ∆V.
	AddRules([]cfd.CFD) (*cfd.Delta, error)
	// RemoveRules retires rules by id, dropping their per-site state and
	// their marks from the maintained violation set. Returns the retired
	// ∆V.
	RemoveRules([]string) (*cfd.Delta, error)
}

// Compile-time checks that both engines satisfy the façade.
var (
	_ Detector = (*vertical.System)(nil)
	_ Detector = (*horizontal.System)(nil)
)

// VerticalOptions configures NewVertical.
type VerticalOptions = vertical.Options

// HorizontalOptions configures NewHorizontal.
type HorizontalOptions = horizontal.Options

// NewVertical partitions rel vertically under scheme and builds the §4
// incremental detection system (optionally with §5's optimizer).
func NewVertical(rel *relation.Relation, scheme *partition.VerticalScheme, rules []cfd.CFD, opts VerticalOptions) (*vertical.System, error) {
	return vertical.NewSystem(rel, scheme, rules, opts)
}

// NewHorizontal partitions rel horizontally under scheme and builds the
// §6 incremental detection system.
func NewHorizontal(rel *relation.Relation, scheme *partition.HorizontalScheme, rules []cfd.CFD, opts HorizontalOptions) (*horizontal.System, error) {
	return horizontal.NewSystem(rel, scheme, rules, opts)
}
