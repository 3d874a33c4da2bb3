// expbench regenerates the paper's evaluation: every figure and table of
// §7, and the sweeps over what the reproduction added, as text tables at
// a configurable scale. The sweeps' exact columns — message, byte, eqid
// and call counts, |∆V|: pure functions of the scale and its seed — are
// the committed baseline BENCH_exact.json (see baseline.go): -out writes
// it, -verify remeasures it and fails on drift.
//
// Usage:
//
//	expbench                 # every experiment at the default scale
//	expbench -exp Exp-2      # one experiment by exact name (only it runs)
//	expbench -exp "Fig 11"   # every experiment whose figure contains the string
//	expbench -unit 500 -sites 6 -seed 3
//	expbench -quick          # the small scale used by tests/benchmarks
//	expbench -out BENCH_exact.json   # run the baseline suites and write their exact columns
//	expbench -verify         # remeasure the baseline suites against BENCH_exact.json
//	expbench -cpuprofile cpu.prof -exp Exp-2   # profile a run (also -memprofile)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/harness"
)

// main wraps run so error exits still flush the profiles: os.Exit skips
// deferred functions, so every defer lives inside run.
func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("expbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick    = fs.Bool("quick", false, "use the quick (test) scale")
		unit     = fs.Int("unit", 0, "rows standing in for 1M TPCH tuples (0 = scale default)")
		dblpUnit = fs.Int("dblpunit", 0, "rows standing in for 100K DBLP tuples (0 = scale default)")
		sites    = fs.Int("sites", 0, "number of sites n (0 = scale default)")
		seed     = fs.Int64("seed", 0, "workload seed (0 = scale default)")
		exp      = fs.String("exp", "", "run only the experiment of this name, or those whose figure contains this substring")
		out      = fs.String("out", "", "run the baseline suites and write their exact columns to this file")
		verify   = fs.Bool("verify", false, "remeasure the baseline suites and compare with "+baselinePath+"; nonzero exit on drift")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "error:", msg)
		return 2
	}

	sc := harness.Default
	scaled := *quick || *unit > 0 || *dblpUnit > 0 || *sites > 0 || *seed != 0
	if *quick {
		sc = harness.Quick
	}
	if *unit > 0 {
		sc.Unit = *unit
	}
	if *dblpUnit > 0 {
		sc.DBLPUnit = *dblpUnit
	}
	if *sites > 0 {
		sc.Sites = *sites
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	suitesOnly := *out != "" || *verify
	if *verify && scaled {
		// The committed baseline is default-scale; re-measuring at
		// another scale would report drift that is really a knob
		// mismatch.
		return usage("-verify checks the committed default-scale baseline; scale flags are not allowed")
	}
	if suitesOnly && *exp != "" {
		return usage("-out and -verify cover every baseline suite; -exp is not allowed")
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "error:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "error:", err)
			}
		}()
	}

	tables := stdout
	if *verify {
		tables = io.Discard
	} else {
		fmt.Fprintf(stdout, "reproduction scale: 1M TPCH ≙ %d rows, 100K DBLP ≙ %d rows, n = %d sites, seed %d\n\n",
			sc.Unit, sc.DBLPUnit, sc.Sites, sc.Seed)
	}
	fresh, err := measure(sc, *exp, suitesOnly, tables)
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		if err := fresh.write(*out); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d suites)\n", *out, len(fresh.Suites))
	}
	if *verify {
		if err := verifyFile(baselinePath, fresh, stdout); err != nil {
			return fail(err)
		}
	}
	return 0
}

// selected returns the experiments -exp selects — the one of that name,
// or those whose figure contains it — and only the baseline suites among
// them when suitesOnly.
func selected(filter string, suitesOnly bool) []harness.Experiment {
	var out []harness.Experiment
	for _, e := range harness.Experiments() {
		if e.Matches(filter) && (!suitesOnly || e.Workload != nil) {
			out = append(out, e)
		}
	}
	return out
}

// measure runs the selected experiments, printing each table to tables
// as it completes, and returns the exact columns of the suites among
// them. The filter selects which experiments RUN, not just which print:
// the sweeps are expensive, and a profiled run (-cpuprofile) should
// contain only the selected experiment's samples.
func measure(sc harness.Scale, filter string, suitesOnly bool, tables io.Writer) (*baseline, error) {
	exps := selected(filter, suitesOnly)
	if len(exps) == 0 {
		return nil, fmt.Errorf("no experiment matches %q", filter)
	}
	fresh := &baseline{Scale: scale{Unit: sc.Unit, DBLPUnit: sc.DBLPUnit, Sites: sc.Sites, Seed: sc.Seed}}
	for _, e := range exps {
		r, err := e.Run(sc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprintln(tables, r.Format())
		if e.Workload != nil {
			if err := fresh.add(e.Workload(sc), r); err != nil {
				return nil, err
			}
		}
	}
	return fresh, nil
}
