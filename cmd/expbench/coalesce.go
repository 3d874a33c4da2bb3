package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/harness"
)

// BENCH_coalesce.json is the batch-grouped protocol baseline: per
// (engine, batch size), the wire meters of the same ∆D applied update by
// update (the unit_* columns) and whole (coal_*). The rows are
// a pure function of the seed and must stay bit-identical across perf
// work on any machine; only the header varies with the environment.
// Latency columns are machine-dependent and deliberately kept out (the
// -coalesce stdout table reports them).

// coalesceRow is one (engine, batch size) row of the baseline.
type coalesceRow struct {
	Style      string `json:"style"`
	BatchSize  int    `json:"batch_size"`
	UnitMsgs   int64  `json:"unit_msgs"`
	CoalMsgs   int64  `json:"coal_msgs"`
	UnitBytes  int64  `json:"unit_bytes"`
	CoalBytes  int64  `json:"coal_bytes"`
	UnitEqids  int64  `json:"unit_eqids"`
	CoalEqids  int64  `json:"coal_eqids"`
	NetMarks   int    `json:"net_marks"`
	Violations int    `json:"violations"`
}

// coalesceBaseline is the file layout of BENCH_coalesce.json.
type coalesceBaseline struct {
	GeneratedBy string        `json:"generated_by"`
	GoVersion   string        `json:"go_version"`
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	Workload    string        `json:"workload"`
	Rows        []coalesceRow `json:"rows"`
}

func coalesceRows(rows []harness.CoalesceRow) []coalesceRow {
	out := make([]coalesceRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, coalesceRow{
			Style: r.Style, BatchSize: r.BatchSize,
			UnitMsgs: r.UnitMsgs, CoalMsgs: r.CoalMsgs,
			UnitBytes: r.UnitBytes, CoalBytes: r.CoalBytes,
			UnitEqids: r.UnitEqids, CoalEqids: r.CoalEqids,
			NetMarks: r.NetMarks, Violations: r.Violations,
		})
	}
	return out
}

func writeCoalesceBaseline(path string, sc harness.Scale, rows []harness.CoalesceRow) error {
	base := coalesceBaseline{
		GeneratedBy: "expbench -coalesce",
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Workload: fmt.Sprintf("TPCH-like seed=%d |D|=%d |Σ|=50 n=%d sites, batches of %v",
			sc.Seed, 3*sc.Unit, sc.Sites, harness.CoalesceBatchSizes()),
		Rows: coalesceRows(rows),
	}
	buf, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", path, len(base.Rows))
	return nil
}

// runCoalesceMode executes expbench -coalesce: one sweep under the
// experiment's 100µs RTT feeds both the stdout latency table and the
// committed wire-meter baseline (the meters never depend on the RTT —
// latency changes when replies arrive, not what is sent).
func runCoalesceMode(path string, sc harness.Scale) error {
	const rtt = 100 * time.Microsecond
	rows, err := harness.RunCoalesce(sc, rtt)
	if err != nil {
		return err
	}
	fmt.Println(harness.CoalesceResult(rows, rtt).Format())
	return writeCoalesceBaseline(path, sc, rows)
}
