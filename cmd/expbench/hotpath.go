package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/workload"
)

// The hot-path baseline measures the allocation-sensitive inner loops:
// full centralized detection, the centralized incremental maintainer,
// and one unit update through each distributed engine. Each entry
// reports ns/op, B/op and allocs/op from testing.Benchmark plus — for
// the distributed paths — the exact wire meters per operation, which
// must stay bit-identical across perf work (the meters are the paper's
// quantities; optimizations may only change local computation).

// hotpathResult is one benchmark row of BENCH_hotpath.json.
type hotpathResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Wire meters per op (distributed paths only): what the operation
	// ships, from the cluster's exact byte accounting.
	WireBytesPerOp float64 `json:"wire_bytes_per_op,omitempty"`
	WireMsgsPerOp  float64 `json:"wire_msgs_per_op,omitempty"`
}

// hotpathBaseline is the file layout of BENCH_hotpath.json.
type hotpathBaseline struct {
	GeneratedBy string          `json:"generated_by"`
	GoVersion   string          `json:"go_version"`
	GOOS        string          `json:"goos"`
	GOARCH      string          `json:"goarch"`
	Workload    string          `json:"workload"`
	Benchmarks  []hotpathResult `json:"benchmarks"`
}

const (
	hpSeed  = 42
	hpRows  = 1500
	hpRules = 50
	hpSites = 5
)

func hpGen() *workload.Generator { return workload.NewSized(workload.TPCH, hpSeed, 8000) }

// hpMeterOps is the fixed op count of the deterministic wire-meter
// window.
const hpMeterOps = 64

// hpSystem builds one distributed system over the hot-path workload.
func hpSystem(style string, rel *relation.Relation, rules []cfd.CFD, noIndexes bool) (core.Detector, error) {
	if style == "vertical" {
		return core.NewVertical(rel, partition.RoundRobinVertical(rel.Schema, hpSites),
			rules, core.VerticalOptions{UseOptimizer: !noIndexes, NoIndexes: noIndexes})
	}
	return core.NewHorizontal(rel, partition.HashHorizontal("c_name", hpSites),
		rules, core.HorizontalOptions{NoIndexes: noIndexes})
}

// wireMeters is a per-op wire measurement over a fixed op window.
type wireMeters struct {
	bytesPerOp, msgsPerOp float64
}

// unitUpdateMeters measures the exact per-op shipment of hpMeterOps
// insert+delete pairs on a fresh system: deterministic in hpSeed.
func unitUpdateMeters(style string) (wireMeters, error) {
	gen := hpGen()
	rules := gen.Rules(hpRules)
	rel := gen.Relation(hpRows)
	sys, err := hpSystem(style, rel, rules, false)
	if err != nil {
		return wireMeters{}, err
	}
	for i := 0; i < hpMeterOps; i++ {
		t := gen.Next()
		if _, err := sys.ApplyBatch(relation.UpdateList{{Kind: relation.Insert, Tuple: t}}); err != nil {
			return wireMeters{}, err
		}
		if _, err := sys.ApplyBatch(relation.UpdateList{{Kind: relation.Delete, Tuple: t}}); err != nil {
			return wireMeters{}, err
		}
	}
	st := sys.Stats()
	return wireMeters{
		bytesPerOp: float64(st.Bytes) / hpMeterOps,
		msgsPerOp:  float64(st.Messages) / hpMeterOps,
	}, nil
}

// batchDetectMeters measures one BatchDetect on a fresh system; every
// run ships the same.
func batchDetectMeters(style string) (wireMeters, error) {
	gen := hpGen()
	rules := gen.Rules(hpRules)
	rel := gen.Relation(hpRows)
	sys, err := hpSystem(style, rel, rules, true)
	if err != nil {
		return wireMeters{}, err
	}
	if _, err := sys.BatchDetect(); err != nil {
		return wireMeters{}, err
	}
	st := sys.Stats()
	return wireMeters{bytesPerOp: float64(st.Bytes), msgsPerOp: float64(st.Messages)}, nil
}

func record(name string, r testing.BenchmarkResult) hotpathResult {
	return hotpathResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

func writeHotpathBaseline(path string) error {
	base := hotpathBaseline{
		GeneratedBy: "expbench -json",
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Workload: fmt.Sprintf("TPCH-like seed=%d |D|=%d |Σ|=%d n=%d",
			hpSeed, hpRows, hpRules, hpSites),
	}

	// Centralized detection over a fixed relation.
	{
		gen := hpGen()
		rules := gen.Rules(hpRules)
		rel := gen.Relation(hpRows)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				centralized.Detect(rel, rules)
			}
		})
		base.Benchmarks = append(base.Benchmarks, record("centralized_detect", res))
	}

	// Centralized incremental maintainer: one insert+delete pair per op,
	// so the maintained state is steady and ops are comparable.
	{
		gen := hpGen()
		rules := gen.Rules(hpRules)
		rel := gen.Relation(hpRows)
		inc, err := centralized.NewIncremental(rel, rules)
		if err != nil {
			return err
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := gen.Next()
				if _, err := inc.Apply(relation.UpdateList{{Kind: relation.Insert, Tuple: t}}); err != nil {
					b.Fatal(err)
				}
				if _, err := inc.Apply(relation.UpdateList{{Kind: relation.Delete, Tuple: t}}); err != nil {
					b.Fatal(err)
				}
			}
		})
		base.Benchmarks = append(base.Benchmarks, record("centralized_incremental_apply", res))
	}

	// Distributed unit updates: insert+delete per op keeps fragment and
	// index state steady while metering exact shipment per op. The wire
	// meters come from a fixed op window (hpMeterOps ops on a fresh
	// system) so they are a pure function of the seed — the deterministic
	// columns `make bench-verify` pins — while ns/op and allocations come
	// from testing.Benchmark, whose op count is timing-dependent.
	for _, style := range []string{"vertical", "horizontal"} {
		meters, err := unitUpdateMeters(style)
		if err != nil {
			return err
		}
		gen := hpGen()
		rules := gen.Rules(hpRules)
		rel := gen.Relation(hpRows)
		sys, err := hpSystem(style, rel, rules, false)
		if err != nil {
			return err
		}
		// Sanity while we are here: the maintained V must match a fresh
		// centralized detection. Snapshot avoids deep-copying for this
		// read-only comparison.
		if want := centralized.Detect(rel, rules); !sys.Violations().Snapshot().Equal(want) {
			return fmt.Errorf("%s system diverged from oracle before benchmarking", style)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := gen.Next()
				if _, err := sys.ApplyBatch(relation.UpdateList{{Kind: relation.Insert, Tuple: t}}); err != nil {
					b.Fatal(err)
				}
				if _, err := sys.ApplyBatch(relation.UpdateList{{Kind: relation.Delete, Tuple: t}}); err != nil {
					b.Fatal(err)
				}
			}
		})
		row := record(style+"_unit_update", res)
		row.WireBytesPerOp = meters.bytesPerOp
		row.WireMsgsPerOp = meters.msgsPerOp
		base.Benchmarks = append(base.Benchmarks, row)
	}

	// Batch detection (the Θ(|D|) baselines), with wire meters from one
	// deterministic run (BatchDetect ships the same bytes every run).
	for _, style := range []string{"vertical", "horizontal"} {
		meters, err := batchDetectMeters(style)
		if err != nil {
			return err
		}
		gen := hpGen()
		rules := gen.Rules(hpRules)
		rel := gen.Relation(hpRows)
		sys, err := hpSystem(style, rel, rules, true)
		if err != nil {
			return err
		}
		// One warm-up run, so the measured ones start from grown buffers.
		if _, err := sys.BatchDetect(); err != nil {
			return err
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sys.BatchDetect(); err != nil {
					b.Fatal(err)
				}
			}
		})
		row := record(style+"_batch_detect", res)
		row.WireBytesPerOp = meters.bytesPerOp
		row.WireMsgsPerOp = meters.msgsPerOp
		base.Benchmarks = append(base.Benchmarks, row)
	}

	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		fmt.Printf("  %-32s %12.0f ns/op %10d B/op %8d allocs/op", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		if r.WireMsgsPerOp > 0 {
			fmt.Printf(" %10.0f wireB/op %6.1f msgs/op", r.WireBytesPerOp, r.WireMsgsPerOp)
		}
		fmt.Println()
	}
	return nil
}
