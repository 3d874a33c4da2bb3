// Package harness reproduces the paper's evaluation (§7): every figure
// and table has a Run function that sweeps the same parameter the paper
// sweeps and reports the same quantities (elapsed time, data shipment,
// eqids shipped, scaleup). DESIGN.md §4 maps experiment ids to figures.
//
// Scales are relative: the paper's "1M tuples" maps to Scale.Unit rows
// (and "100K" DBLP tuples to Scale.DBLPUnit). The claims under test are
// shape claims — who wins, what grows with what — which are preserved
// under scaling because the incremental algorithms are O(|∆D| + |∆V|)
// and the batch baselines Θ(|D|).
package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/session"
	"repro/internal/workload"
)

// Scale maps paper units to row counts.
type Scale struct {
	// Unit is the number of rows standing in for 1M TPCH tuples.
	Unit int
	// DBLPUnit is the number of rows standing in for 100K DBLP tuples.
	DBLPUnit int
	// Sites is the default fragment count n (the paper uses 10).
	Sites int
	// Seed drives all workload generation.
	Seed int64
	// NsPerByte is the simulated network cost used by the scaleup
	// model (≈1 ns/byte ≈ 1 Gbit/s NICs of the paper's EC2 era).
	NsPerByte float64
}

// Quick is the scale used by tests and benchmarks.
//
// NsPerByte calibration: the paper's EC2/Python implementation spends far
// more time per shipped byte, relative to per-tuple compute, than this Go
// implementation does; 100 ns/byte restores that ratio so the simulated
// parallel model (Exp-4/Exp-9) weights network the way the testbed did.
var Quick = Scale{Unit: 300, DBLPUnit: 250, Sites: 5, Seed: 1, NsPerByte: 100}

// Default is the scale used by the expbench tool.
var Default = Scale{Unit: 2000, DBLPUnit: 1000, Sites: 10, Seed: 1, NsPerByte: 100}

// Point is one x-position of a figure.
type Point struct {
	X     float64
	Label string
	// Values are keyed by the Result's column names.
	Values map[string]float64
}

// Result is one reproduced figure or table.
type Result struct {
	Name    string // experiment id, e.g. "Exp-2"
	Figure  string // paper figure, e.g. "Fig 9(b)"
	Title   string
	XLabel  string
	Columns []string // the printed columns, in order
	// Exact names the columns BENCH_exact.json commits: counts and exact
	// ratios that are a pure function of the scale and its seed — never a
	// duration, an allocation count or a cache counter. A renderer names
	// them once, here; a point that lacks one fails the baseline writer.
	// They need not be printed columns.
	Exact  []string
	Points []Point
	Notes  []string
	// Detail is a second table measured by the same sweep (Exp-stream's
	// per-batch rows): committed after its parent, left out by Format.
	Detail *Result
}

// spec describes one measured configuration.
type spec struct {
	dataset   workload.Dataset
	style     string // "vertical" or "horizontal"
	sites     int
	dSize     int
	deltaSize int
	numRules  int
	insFrac   float64
	seed      int64
	sizeHint  int

	useOptimizer bool
	disableMD5   bool
	nsPerByte    float64
	// serialFanout caps every scatter/gather round at one worker,
	// reproducing the pre-engine serial coordinator for comparison runs.
	serialFanout bool
	// linkRTT simulates per-message network propagation delay (see
	// network.Cluster.SetLinkRTT); zero keeps the loopback instantaneous.
	linkRTT time.Duration

	// what to run: the incremental algorithm and the batch-side baseline,
	// which with ibat is Exp-10's refined rebuild instead of BatchDetect
	runInc bool
	runBat bool
	ibat   bool
}

// out carries one configuration's measurements.
type out struct {
	incSeconds float64
	batSeconds float64 // the batch-side baseline, ibat included
	incStats   network.Stats
	batStats   network.Stats
	deltaMarks int
	violations int
	// simulated parallel elapsed (scaleup model)
	incSim float64
	batSim float64
}

// with returns a point's values: the printed columns plus figureExact.
func (o out) with(printed map[string]float64) map[string]float64 {
	v := map[string]float64{
		"inc_bytes": float64(o.incStats.Bytes), "inc_msgs": float64(o.incStats.Messages),
		"inc_eqids": float64(o.incStats.Eqids), "inc_max_recv": maxRecv(o.incStats),
		"bat_bytes": float64(o.batStats.Bytes), "bat_msgs": float64(o.batStats.Messages),
		"bat_eqids": float64(o.batStats.Eqids), "bat_max_recv": maxRecv(o.batStats),
		"delta_v": float64(o.deltaMarks), "v": float64(o.violations),
	}
	for k, x := range printed {
		v[k] = x
	}
	return v
}

func (s spec) gen() *workload.Generator {
	hint := s.sizeHint
	if hint == 0 {
		hint = s.dSize + s.deltaSize
	}
	return workload.NewSized(s.dataset, s.seed, hint)
}

// build opens a session over rel for the spec: the harness drives every
// engine through the same repro.Open construction path as the examples
// and tools.
func (s spec) build(rel *relation.Relation, rules []cfd.CFD) (*session.Session, error) {
	opts := s.options(rel)
	if opts == nil {
		return nil, fmt.Errorf("harness: unknown style %q", s.style)
	}
	sess, err := session.Open(rel, rules, opts...)
	if err == nil && s.linkRTT > 0 {
		sess.Cluster().SetLinkRTT(s.linkRTT)
	}
	return sess, err
}

// options maps the spec's knobs onto session options.
func (s spec) options(rel *relation.Relation) []session.Option {
	var opts []session.Option
	switch s.style {
	case "vertical":
		opts = append(opts, session.WithVertical(partition.RoundRobinVertical(rel.Schema, s.sites)))
		if s.useOptimizer {
			opts = append(opts, session.WithOptimizer())
		}
	case "horizontal":
		// Partition on a data attribute (customers by name), as the
		// paper's own EMP example partitions by grade: equivalence
		// classes then tend to be locally present, which is what makes
		// incHor's shipment-avoiding short-circuits effective.
		attr := "c_name"
		if s.dataset == workload.DBLP {
			attr = "title"
		}
		opts = append(opts, session.WithHorizontal(partition.HashHorizontal(attr, s.sites)))
		if s.disableMD5 {
			opts = append(opts, session.WithoutMD5())
		}
	default:
		return nil
	}
	if s.serialFanout {
		opts = append(opts, session.WithMaxFanout(1))
	}
	return opts
}

// run executes one configuration: generate D, Σ and ∆D, then measure the
// requested algorithms. The batch side runs BatchDetect on the session
// the incremental side has just advanced to D ⊕ ∆D; a session is built
// for it only for Exp-10's rebuild from ∅ and for batch-only points.
// Setup (partitioning, index seeding) is never timed, matching the
// paper's methodology where indices pre-exist.
func run(s spec) (out, error) {
	var o out
	gen := s.gen()
	rules := gen.Rules(s.numRules)
	rel := gen.Relation(s.dSize)
	updates := gen.Updates(rel, s.deltaSize, s.insFrac)

	var sys *session.Session
	if s.runInc {
		var err error
		if sys, err = s.build(rel, rules); err != nil {
			return o, err
		}
		defer sys.Close()
		start := time.Now()
		delta, err := sys.ApplyBatch(context.Background(), updates)
		if err != nil {
			return o, err
		}
		o.incSeconds = time.Since(start).Seconds()
		o.incStats = sys.Stats()
		o.incSim = o.incStats.SimParallelSeconds(s.nsPerByte)
		o.deltaMarks = delta.Size()
		o.violations = sys.Violations().Len()
	}
	if !s.runBat {
		return o, nil
	}
	// Exp-10's refined batch algorithms rebuild V from ∅ with the
	// incremental insertion machinery; a batch-only point opens its
	// session over D ⊕ ∆D.
	bsys := sys
	var inserts relation.UpdateList
	if s.ibat || bsys == nil {
		updated := rel.Clone()
		if err := updates.Normalize().Apply(updated); err != nil {
			return o, err
		}
		base := updated
		if s.ibat {
			base = relation.New(rel.Schema)
			updated.Each(func(t relation.Tuple) bool {
				inserts = append(inserts, relation.Update{Kind: relation.Insert, Tuple: t})
				return true
			})
		}
		var err error
		if bsys, err = s.build(base, rules); err != nil {
			return o, err
		}
		defer bsys.Close()
	}
	bsys.Cluster().ResetStats()
	start := time.Now()
	var v *cfd.Violations
	var err error
	if s.ibat {
		_, err = bsys.ApplyBatch(context.Background(), inserts)
		v = bsys.Violations()
	} else {
		v, err = bsys.BatchDetect()
	}
	if err != nil {
		return o, err
	}
	o.batSeconds = time.Since(start).Seconds()
	o.batStats = bsys.Stats()
	o.batSim = o.batStats.SimParallelSeconds(s.nsPerByte)
	if !s.runInc {
		o.violations = v.Len()
	}
	return o, nil
}
