package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// agreeSeeds are the seeds of an -agree run: the one the sizes were
// chosen on, and one not looked at while choosing them.
var agreeSeeds = []int64{1, 2}

// agreeRun is one child process: one workload, one seed, traced or not.
type agreeRun struct {
	Summary string                 `json:"summary"`
	Metrics map[string]metricValue `json:"metrics"`
}

// agreeCell is one workload on one seed: every run made twice, and the
// untraced run a third time when the first two disagree.
type agreeCell struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	EndToEnd []agreeRun   `json:"end_to_end"`
	PerLayer []agreeRun   `json:"per_layer"`
	Gaps     []agreeGap   `json:"gaps"`
	Exact    []agreeExact `json:"exact_mismatches,omitempty"`
}

type agreeGap struct {
	Metric string  `json:"metric"`
	Gap    float64 `json:"gap"`
	Bound  float64 `json:"bound"`
	Held   bool    `json:"held"`
}

type agreeExact struct {
	Metric string  `json:"metric"`
	A      float64 `json:"a"`
	B      float64 `json:"b"`
}

type baseline struct {
	GoVersion string      `json:"go_version"`
	NumCPU    int         `json:"nproc"`
	MaxProcs  int         `json:"gomaxprocs"`
	Seconds   float64     `json:"run_seconds"`
	Seeds     []int64     `json:"seeds"`
	Agreed    bool        `json:"agreed"`
	Cells     []agreeCell `json:"cells"`
}

// agreeMain runs every workload twice on each seed, untraced and traced,
// each run in its own process, and checks that the two runs agree: every
// end-to-end metric within its own bound, every exact count identical.
// It returns the exit code.
func agreeMain(seconds float64, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bl := baseline{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), MaxProcs: runtime.GOMAXPROCS(0),
		Seconds: seconds, Seeds: agreeSeeds, Agreed: true}
	for _, seed := range agreeSeeds {
		for _, sp := range workloads {
			cell := agreeCell{Workload: sp.name, Seed: seed}
			child := func(traced bool) error {
				run, err := agreeChild(self, sp.name, seed, seconds, traced)
				if traced {
					cell.PerLayer = append(cell.PerLayer, run)
				} else {
					cell.EndToEnd = append(cell.EndToEnd, run)
				}
				return err
			}
			for _, traced := range []bool{false, true, false, true} {
				if err := child(traced); err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", sp.name, seed, err)
					return 1
				}
			}
			cell.Gaps = agreeGaps(cell.EndToEnd)
			if !allHeld(cell.Gaps) {
				// A burst on the box can spoil a whole run. A third run
				// tells a burst from a disagreement: the burst is the odd
				// one out, and the gap is between the two that agree best.
				if err := child(false); err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", sp.name, seed, err)
					return 1
				}
				cell.Gaps = agreeGaps(cell.EndToEnd)
			}
			fmt.Printf("%s seed=%d\n", sp.name, seed)
			for i, d := range endToEnd {
				g := cell.Gaps[i]
				fmt.Printf("  %-16s", d.name)
				for _, run := range cell.EndToEnd {
					fmt.Printf(" %14.4f", run.Metrics[d.name].Value)
				}
				verdict := "ok"
				if !g.Held {
					verdict, bl.Agreed = "OVER ITS BOUND", false
				}
				fmt.Printf(" %-4s gap %5.1f%%  bound %4.0f%%  %s\n", d.unit, 100*g.Gap, 100*g.Bound, verdict)
			}
			for _, name := range exactLayer {
				a, b := cell.PerLayer[0].Metrics[name].Value, cell.PerLayer[1].Metrics[name].Value
				if a != b {
					cell.Exact = append(cell.Exact, agreeExact{Metric: name, A: a, B: b})
					bl.Agreed = false
					fmt.Printf("  %-40s %v != %v  EXACT COUNT DIFFERS\n", name, a, b)
				}
			}
			bl.Cells = append(bl.Cells, cell)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(bl, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !bl.Agreed {
		fmt.Println("runs of the same code disagree")
		return 1
	}
	fmt.Println("runs of the same code agree")
	return 0
}

// agreeGaps is, for each end-to-end metric, the smallest relative gap
// between two of the runs, against the metric's own bound.
func agreeGaps(runs []agreeRun) []agreeGap {
	gaps := make([]agreeGap, len(endToEnd))
	for i, d := range endToEnd {
		g := agreeGap{Metric: d.name, Gap: math.Inf(1), Bound: d.bound}
		for a := range runs {
			for b := a + 1; b < len(runs); b++ {
				x, y := runs[a].Metrics[d.name].Value, runs[b].Metrics[d.name].Value
				g.Gap = math.Min(g.Gap, math.Abs(x-y)/math.Min(x, y))
			}
		}
		g.Held = g.Gap <= g.Bound
		gaps[i] = g
	}
	return gaps
}

func allHeld(gaps []agreeGap) bool {
	for _, g := range gaps {
		if !g.Held {
			return false
		}
	}
	return true
}

// agreeChild runs one workload in a child process and parses what it
// printed: the summary line and the final JSON object.
func agreeChild(self, workload string, seed int64, seconds float64, traced bool) (agreeRun, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return agreeRun{}, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return agreeRun{}, fmt.Errorf("child output: %w", err)
	}
	if !res.Correct || res.Failed != 0 {
		return agreeRun{}, fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	run := agreeRun{Metrics: res.Metrics}
	for _, l := range lines {
		if strings.HasPrefix(l, workload+" seed=") {
			run.Summary = l
		}
	}
	return run, nil
}
