// Command bench is the repository's benchmark: one process runs one
// workload from generated inputs to checked outputs and prints every
// metric by name with its unit. See README.md beside this file.
//
//	bash bench/run.sh --workload hor_tcp_durable --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer metrics of a traced
// run (which also writes the span file).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// scratchRoot holds everything a run writes: temporary checkpoint,
// journal and store directories (removed on exit) and the trace files.
// It is relative to the working directory, the root of the checkout.
const scratchRoot = ".bench_build"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see workloads.go)")
		seed    = flag.Int64("seed", 1, "seed of the update stream; the program under test never sees it")
		seconds = flag.Float64("seconds", 15, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes the span file")
		agree   = flag.Bool("agree", false, "run every workload twice on two seeds and check the runs agree")
		out     = flag.String("out", "", "with -agree: write the numbers to this file (bench/baseline.json)")
	)
	flag.Parse()
	// Sized for a 2-core box: one writer, one reader or site at a time
	// beside it.
	runtime.GOMAXPROCS(2)

	if *agree {
		os.Exit(agreeMain(*seconds, *out))
	}
	sp, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have:\n", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	res, err := runWorkload(sp, *seed, *seconds, *trace != 0, scratchRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// newRun readies one run of sp; its temporary directories live under
// scratch and go away when the run ends.
func newRun(sp spec, seed int64, seconds float64, traced bool, scratch string) (*run, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, err
	}
	r := &run{sp: sp, seed: seed, seconds: seconds, tmp: tmp, warn: func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "bench: warning: %s: %s\n", sp.name, fmt.Sprintf(format, a...))
	}}
	if traced {
		r.rec = newRecorder(numSites)
	}
	return r, nil
}

// result is what an executed run reports: the per-layer metrics of a
// traced run, the end-to-end metrics otherwise. Metrics are withheld
// when the final oracle failed: numbers from a run that computed the
// wrong V mean nothing, and every operation of it counts as failed.
func (r *run) result(traced bool) *result {
	res := &result{Correct: !r.wrongV, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if r.wrongV {
		res.Failed = r.attempted
		return res
	}
	values := r.layer
	if !traced {
		values = r.endToEnd()
	}
	for _, d := range metricDefs(traced) {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res
}

// metricDefs is the list a run reports: per-layer when traced.
func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// runWorkload runs sp once, prints every metric by name with its unit
// and, for a traced run, writes the span file under scratch.
func runWorkload(sp spec, seed int64, seconds float64, traced bool, scratch string) (*result, error) {
	r, err := newRun(sp, seed, seconds, traced, scratch)
	if err != nil {
		return nil, err
	}
	if err := r.execute(); err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	res := r.result(traced)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "bench: %s: final V differs from a fresh centralized Detect on the mirror; no metrics\n", sp.name)
		return res, nil
	}
	if traced {
		path := filepath.Join(scratch, "trace", fmt.Sprintf("%s-seed%d.json", sp.name, seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := r.rec.write(path, sp.name, seed); err != nil {
			return nil, err
		}
		fmt.Printf("trace: %s (%d spans)\n", path, len(r.rec.spans))
	}
	sorted := sortedCopy(r.lat)
	fmt.Printf("%s seed=%d: %d timed batches of %d updates, apply quartiles %.0f/%.0f/%.0f us, p%g is the highest percentile with ten samples beyond; %d operations, %d failed\n",
		sp.name, seed, len(r.lat), sp.batch, percentile(sorted, 25), percentile(sorted, 50), percentile(sorted, 75),
		pickPercentile(len(r.lat)), res.Attempted, res.Failed)
	for _, d := range metricDefs(traced) {
		fmt.Printf("  %-40s %16.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	return res, nil
}
