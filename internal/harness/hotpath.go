package harness

import (
	"context"
	"fmt"

	"repro/internal/relation"
	"repro/internal/session"
	"repro/internal/workload"
)

// Exp-hotpath pins what the distributed hot paths ship per operation: a
// unit update (one insert and one delete, each its own ApplyBatch) and
// one BatchDetect, per engine, from the cluster's exact byte accounting.
// The meters are the paper's quantities and must stay bit-identical
// across perf work — optimizations may only change local computation.
// How long the same loops take is bench_test.go's business
// (BenchmarkUnitUpdate*, BenchmarkCentralized*), not this table's.
//
// The workload is fixed rather than scaled, so the rows mean the same at
// every -unit.
const (
	hpSeed  = 42
	hpRows  = 1500
	hpRules = 50
	hpSites = 5
	// hpMeterOps is the op count of the unit-update window.
	hpMeterOps = 64
)

func hotpathWorkload(Scale) string {
	return fmt.Sprintf("TPCH-like seed=%d |D|=%d |Σ|=%d n=%d, at every scale", hpSeed, hpRows, hpRules, hpSites)
}

// hotpathSystem opens one distributed session over the hot-path workload.
func hotpathSystem(style string, useOptimizer bool) (*session.Session, *workload.Generator, error) {
	sp := spec{dataset: workload.TPCH, style: style, sites: hpSites, seed: hpSeed, sizeHint: 8000, useOptimizer: useOptimizer}
	gen := sp.gen()
	rules := gen.Rules(hpRules)
	sys, err := sp.build(gen.Relation(hpRows), rules)
	return sys, gen, err
}

// unitUpdateMeters measures the per-op shipment of hpMeterOps
// insert+delete pairs on a fresh system: insert+delete keeps fragment and
// index state steady, and a fixed window makes the meters a pure function
// of hpSeed.
func unitUpdateMeters(style string) (bytesPerOp, msgsPerOp float64, err error) {
	sys, gen, err := hotpathSystem(style, true)
	if err != nil {
		return 0, 0, err
	}
	defer sys.Close()
	for i := 0; i < hpMeterOps; i++ {
		t := gen.Next()
		for _, kind := range []relation.UpdateKind{relation.Insert, relation.Delete} {
			if _, err := sys.ApplyBatch(context.Background(), relation.UpdateList{{Kind: kind, Tuple: t}}); err != nil {
				return 0, 0, err
			}
		}
	}
	st := sys.Stats()
	return float64(st.Bytes) / hpMeterOps, float64(st.Messages) / hpMeterOps, nil
}

// batchDetectMeters measures one BatchDetect (the Θ(|D|) baseline) on a
// fresh system; every run ships the same.
func batchDetectMeters(style string) (bytes, msgs float64, err error) {
	sys, _, err := hotpathSystem(style, false)
	if err != nil {
		return 0, 0, err
	}
	defer sys.Close()
	if _, err := sys.BatchDetect(); err != nil {
		return 0, 0, err
	}
	st := sys.Stats()
	return float64(st.Bytes), float64(st.Messages), nil
}

// ExpHotpath is the Exp-hotpath experiment.
func ExpHotpath(Scale) (*Result, error) {
	r := &Result{
		Name: "Exp-hotpath", Figure: "meters",
		Title:   "wire meters per operation of the distributed hot paths",
		XLabel:  "engine_operation",
		Columns: []string{"wire_bytes_per_op", "wire_msgs_per_op"},
	}
	r.Exact = r.Columns
	for _, op := range []struct {
		name   string
		meters func(style string) (float64, float64, error)
	}{{"unit_update", unitUpdateMeters}, {"batch_detect", batchDetectMeters}} {
		for _, style := range []string{"vertical", "horizontal"} {
			bytes, msgs, err := op.meters(style)
			if err != nil {
				return nil, fmt.Errorf("hotpath: %s %s: %w", style, op.name, err)
			}
			r.Points = append(r.Points, Point{
				X:      float64(len(r.Points)),
				Label:  style + "_" + op.name,
				Values: map[string]float64{"wire_bytes_per_op": bytes, "wire_msgs_per_op": msgs},
			})
		}
	}
	return r, nil
}
