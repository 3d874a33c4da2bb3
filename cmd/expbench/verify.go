package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/harness"
)

// expbench -verify regenerates every deterministic column of the
// committed perf baselines and fails on drift:
//
//   - BENCH_hotpath.json: the wire meters (bytes and messages per op) of
//     the distributed hot paths — timing columns are machine-dependent
//     and skipped;
//   - BENCH_stream.json: the full rows array (batch sizes, ∆V, |V|, wire
//     meters per batch — all a pure function of the seed);
//   - BENCH_coalesce.json: the full rows array;
//   - BENCH_net.json: the full rows array (real-socket wire meters and
//     framing overhead, asserted identical to loopback during the sweep);
//   - BENCH_recovery.json: the full rows array (cold-start, steady-state
//     and warm-restart call/record counts — the sweep asserts warm
//     strictly cheaper than cold and the recovered V correct before a
//     row is emitted);
//   - BENCH_storage.json: the state rows (|D|, ∆V, |V|, marks per ingest
//     chunk and sweep batch) of the out-of-core sweep — the sweep asserts
//     disk/memory V bit-identity at every row before emitting; cache
//     counters and timings are informational and skipped;
//   - BENCH_query.json: the state rows (|D|, |V|, marks, epoch per
//     phase) of the read-contention sweep — the sweep asserts the
//     lock-free read-latency bound before emitting; its latency
//     percentiles are machine-dependent and not compared.
//
// CI runs `make bench-verify`, so a change that silently shifts what the
// protocols ship — the paper's own quantities — fails the build instead
// of landing as an unexplained baseline diff. Intentional protocol
// changes regenerate the baselines (`make bench stream coalesce net
// recovery query storage-bench`) and commit them alongside the code.

// verifyBaselines checks all three baselines against freshly measured
// values, returning an error describing the first drift found.
func verifyBaselines(sc harness.Scale) error {
	fails := 0
	report := func(format string, args ...any) {
		fails++
		fmt.Printf("DRIFT: "+format+"\n", args...)
	}

	// BENCH_hotpath.json: deterministic wire-meter columns.
	var hot hotpathBaseline
	if err := readJSON("BENCH_hotpath.json", &hot); err != nil {
		return err
	}
	want := make(map[string]wireMeters)
	for _, style := range []string{"vertical", "horizontal"} {
		m, err := unitUpdateMeters(style)
		if err != nil {
			return err
		}
		want[style+"_unit_update"] = m
		if m, err = batchDetectMeters(style); err != nil {
			return err
		}
		want[style+"_batch_detect"] = m
	}
	seen := 0
	for _, row := range hot.Benchmarks {
		m, ok := want[row.Name]
		if !ok {
			continue
		}
		seen++
		if row.WireBytesPerOp != m.bytesPerOp || row.WireMsgsPerOp != m.msgsPerOp {
			report("BENCH_hotpath.json %s: wire meters %0.2fB/%0.2fmsg per op, measured %0.2f/%0.2f",
				row.Name, row.WireBytesPerOp, row.WireMsgsPerOp, m.bytesPerOp, m.msgsPerOp)
		}
	}
	if seen != len(want) {
		report("BENCH_hotpath.json: %d of %d metered rows present", seen, len(want))
	}
	fmt.Printf("BENCH_hotpath.json: %d metered rows checked\n", seen)

	// BENCH_stream.json: the rows array is fully deterministic.
	var streamBase streamBaseline
	if err := readJSON("BENCH_stream.json", &streamBase); err != nil {
		return err
	}
	runs, err := harness.RunStream(sc, harness.StreamKnobs{})
	if err != nil {
		return err
	}
	if err := compareRows("BENCH_stream.json", streamBase.Rows, streamRowsOf(runs), report); err != nil {
		return err
	}

	// BENCH_coalesce.json: the rows array is fully deterministic.
	var coalBase coalesceBaseline
	if err := readJSON("BENCH_coalesce.json", &coalBase); err != nil {
		return err
	}
	coalRows, err := harness.RunCoalesce(sc, 0)
	if err != nil {
		return err
	}
	if err := compareRows("BENCH_coalesce.json", coalBase.Rows, coalesceRows(coalRows), report); err != nil {
		return err
	}

	// BENCH_net.json: the rows array is fully deterministic (the sweep
	// itself asserts loopback/TCP meter identity before emitting a row).
	var netBase netBaseline
	if err := readJSON("BENCH_net.json", &netBase); err != nil {
		return err
	}
	freshNet, err := harness.RunNet(sc)
	if err != nil {
		return err
	}
	if err := compareRows("BENCH_net.json", netBase.Rows, netRows(freshNet), report); err != nil {
		return err
	}

	// BENCH_recovery.json: the rows array is fully deterministic (counts,
	// not seconds; the sweep asserts warm < cold and V correctness).
	var recBase recoveryBaseline
	if err := readJSON("BENCH_recovery.json", &recBase); err != nil {
		return err
	}
	freshRec, err := harness.RunRecovery(sc)
	if err != nil {
		return err
	}
	if err := compareRows("BENCH_recovery.json", recBase.Rows, recoveryRows(freshRec), report); err != nil {
		return err
	}
	freshDriver, err := harness.RunDriverRecovery(sc)
	if err != nil {
		return err
	}
	if err := compareRows("BENCH_recovery.json (driver_rows)", recBase.DriverRows, driverRecoveryRows(freshDriver), report); err != nil {
		return err
	}

	// BENCH_storage.json: the state rows are deterministic; the sweep
	// itself asserts disk/memory V bit-identity at every row before
	// emitting it (cache counters and timings are informational and not
	// compared — eviction order is not reproducible).
	var stoBase storageBaseline
	if err := readJSON("BENCH_storage.json", &stoBase); err != nil {
		return err
	}
	freshSto, err := harness.RunStorage(sc, harness.StorageKnobs{})
	if err != nil {
		return err
	}
	if err := compareRows("BENCH_storage.json", stoBase.Rows, storageRows(freshSto.Rows), report); err != nil {
		return err
	}

	// BENCH_query.json: the state rows are deterministic; the sweep
	// itself asserts the lock-free read-latency bound before returning
	// (latency percentiles in the file are informational, not compared).
	var qBase queryBaseline
	if err := readJSON("BENCH_query.json", &qBase); err != nil {
		return err
	}
	freshQuery, err := harness.RunQueryBench(sc)
	if err != nil {
		return err
	}
	if err := compareRows("BENCH_query.json", qBase.Rows, queryRows(freshQuery.Rows), report); err != nil {
		return err
	}

	if fails > 0 {
		return fmt.Errorf("%d baseline column(s) drifted — if intentional, regenerate with `make bench stream coalesce net recovery query storage-bench` and commit", fails)
	}
	fmt.Println("baselines verified: no drift in deterministic columns")
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareRows marshals both row sets and reports the first differing row.
func compareRows[T any](path string, committed, fresh []T, report func(string, ...any)) error {
	if len(committed) != len(fresh) {
		report("%s: %d rows committed, %d measured", path, len(committed), len(fresh))
		return nil
	}
	for i := range committed {
		a, err := json.Marshal(committed[i])
		if err != nil {
			return err
		}
		b, err := json.Marshal(fresh[i])
		if err != nil {
			return err
		}
		if string(a) != string(b) {
			report("%s row %d:\n  committed: %s\n  measured:  %s", path, i, a, b)
		}
	}
	fmt.Printf("%s: %d rows checked\n", path, len(committed))
	return nil
}

// streamRowsOf renders stream runs into the baseline's row form.
func streamRowsOf(runs []harness.StreamRun) []streamRow {
	var rows []streamRow
	for _, run := range runs {
		s := run.Summary
		row := streamRow{
			Profile:      string(run.Spec.Profile),
			Engine:       run.Spec.Engine,
			Batches:      s.Batches,
			Updates:      s.Updates,
			Inserts:      s.Inserts,
			Deletes:      s.Deletes,
			NetAdded:     s.Net.AddedMarks(),
			NetRemoved:   s.Net.RemovedMarks(),
			Violations:   s.Violations,
			Marks:        s.Marks,
			WireBytes:    s.WireBytes,
			WireMessages: s.WireMessages,
			Eqids:        s.Eqids,
		}
		for _, b := range s.Results {
			row.Batch = append(row.Batch, streamBatchRow{
				Seq:          b.Seq,
				Size:         b.Size,
				AddedMarks:   b.AddedMarks,
				RemovedMarks: b.RemovedMarks,
				Violations:   b.Violations,
				WireBytes:    b.WireBytes,
				WireMessages: b.WireMessages,
				Eqids:        b.Eqids,
			})
		}
		rows = append(rows, row)
	}
	return rows
}
