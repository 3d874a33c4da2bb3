package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"repro/internal/harness"
)

// BENCH_exact.json is the one committed baseline: the scale, then per
// suite (a harness.Experiment that declares a Workload) the workload line
// and one row per table point holding the Result's Exact columns — counts
// and exact ratios only. Nothing in it depends on the machine, the Go
// version or the clock, so regenerating it anywhere yields the same bytes,
// and `make bench-verify` (CI) fails on any difference: a change that
// shifts what the protocols ship — the paper's own quantities — fails the
// build instead of landing as an unexplained diff. An intentional change
// regenerates the file with `make bench` and commits it with the code.
const baselinePath = "BENCH_exact.json"

type baseline struct {
	Scale  scale   `json:"scale"`
	Suites []suite `json:"suites"`
}

type scale struct {
	Unit     int   `json:"unit"`
	DBLPUnit int   `json:"dblp_unit"`
	Sites    int   `json:"sites"`
	Seed     int64 `json:"seed"`
}

type suite struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rows     []row  `json:"rows"`
}

type row struct {
	Row    string             `json:"row"`
	Values map[string]float64 `json:"values"`
}

// add appends r — and its Detail table — as suites. A table without Exact
// columns, a point without a label or with a label used twice, and an
// Exact column missing from a point are errors: a misspelt column must
// not be committed as a column of zeros.
func (b *baseline) add(workload string, r *harness.Result) error {
	for ; r != nil; r = r.Detail {
		if len(r.Exact) == 0 {
			return fmt.Errorf("%s: a baseline suite that declares no exact column", r.Name)
		}
		s := suite{Name: r.Name, Workload: workload}
		seen := make(map[string]bool, len(r.Points))
		for _, p := range r.Points {
			if p.Label == "" || seen[p.Label] {
				return fmt.Errorf("%s: row label %q is empty or repeated", r.Name, p.Label)
			}
			seen[p.Label] = true
			values := make(map[string]float64, len(r.Exact))
			for _, col := range r.Exact {
				v, ok := p.Values[col]
				if !ok {
					return fmt.Errorf("%s / %s: exact column %q missing from the point", r.Name, p.Label, col)
				}
				values[col] = v
			}
			s.Rows = append(s.Rows, row{Row: p.Label, Values: values})
		}
		b.Suites = append(b.Suites, s)
	}
	return nil
}

func (b *baseline) write(path string) error {
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// verifyFile compares the baseline committed at path with a fresh
// measurement, printing every difference.
func verifyFile(path string, fresh *baseline, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var committed baseline
	if err := json.Unmarshal(data, &committed); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	drift := compare(&committed, fresh)
	for _, d := range drift {
		fmt.Fprintln(w, "DRIFT:", d)
	}
	if len(drift) > 0 {
		return fmt.Errorf("%d difference(s) from %s — if intentional, regenerate with `make bench` and commit", len(drift), path)
	}
	rows := 0
	for _, s := range fresh.Suites {
		rows += len(s.Rows)
	}
	fmt.Fprintf(w, "%s verified: %d suites, %d rows, no drift\n", path, len(fresh.Suites), rows)
	return nil
}

// compare lists every difference between two baselines as "suite / row /
// column: ..." lines, sorted. A suite, row or column present on one side
// only is a difference like any other.
func compare(committed, fresh *baseline) []string {
	var drift []string
	if committed.Scale != fresh.Scale {
		drift = append(drift, fmt.Sprintf("scale: committed %+v, measured %+v", committed.Scale, fresh.Scale))
	}
	report := func(where, what string) { drift = append(drift, where+": "+what) }
	suiteName := func(s suite) string { return s.Name }
	rowLabel := func(r row) string { return r.Row }
	cs, fs := keyed(committed.Suites, suiteName), keyed(fresh.Suites, suiteName)
	oneSided(cs, fs, "", "suite", report)
	for _, f := range fresh.Suites {
		c, ok := cs[f.Name]
		if !ok {
			continue
		}
		if c.Workload != f.Workload {
			report(f.Name, fmt.Sprintf("workload committed %q, measured %q", c.Workload, f.Workload))
		}
		cr, fr := keyed(c.Rows, rowLabel), keyed(f.Rows, rowLabel)
		oneSided(cr, fr, f.Name+" / ", "row", report)
		for _, frow := range f.Rows {
			crow, ok := cr[frow.Row]
			if !ok {
				continue
			}
			where := f.Name + " / " + frow.Row + " / "
			oneSided(crow.Values, frow.Values, where, "column", report)
			for col, fv := range frow.Values {
				if cv, ok := crow.Values[col]; ok && cv != fv {
					report(where+col, fmt.Sprintf("committed %s, measured %s", num(cv), num(fv)))
				}
			}
		}
	}
	sort.Strings(drift) // map order above; a stable report below
	return drift
}

func keyed[T any](xs []T, key func(T) string) map[string]T {
	m := make(map[string]T, len(xs))
	for _, x := range xs {
		m[key(x)] = x
	}
	return m
}

// oneSided reports the keys only one of the two maps holds.
func oneSided[T any](committed, fresh map[string]T, where, kind string, report func(where, what string)) {
	for k := range committed {
		if _, ok := fresh[k]; !ok {
			report(where+k, kind+" committed but not measured")
		}
	}
	for k := range fresh {
		if _, ok := committed[k]; !ok {
			report(where+k, kind+" measured but not committed")
		}
	}
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
