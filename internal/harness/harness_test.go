package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// The tests below assert the paper's *shape* claims at the Quick scale:
// who wins, what grows with what, where the advantages come from. Shape
// checks on shipment (bytes, eqids) are deterministic; the few elapsed-
// time checks use the largest sweep point, where the measured margins are
// widest.

// runExp runs the experiment registered under name at the Quick scale.
func runExp(t *testing.T, name string) *Result {
	t.Helper()
	for _, e := range Experiments() {
		if e.Name == name {
			r, err := e.Run(Quick)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	t.Fatalf("no experiment %q", name)
	return nil
}

func first(r *Result, col string) float64 { return r.Points[0].Values[col] }
func last(r *Result, col string) float64  { return r.Points[len(r.Points)-1].Values[col] }

// Fig 9(a): incremental shipment is flat in |D|; batch shipment grows
// linearly; incremental ships far less and runs faster.
func TestShapeExp1(t *testing.T) {
	if testing.Short() {
		t.Skip("shape sweep")
	}
	r := runExp(t, "Exp-1")
	if g := last(r, "incKB") / first(r, "incKB"); g > 1.5 {
		t.Errorf("incremental shipment grew %.2f× across a 5× |D| sweep; should be ~flat (Prop. 6)", g)
	}
	if g := last(r, "batKB") / first(r, "batKB"); g < 2 {
		t.Errorf("batch shipment grew only %.2f× across a 5× |D| sweep; should be ~linear", g)
	}
	for _, p := range r.Points {
		if p.Values["incKB"] >= p.Values["batKB"] {
			t.Errorf("|D|=%v: incVer shipped %.0fKB ≥ batVer %.0fKB", p.X, p.Values["incKB"], p.Values["batKB"])
		}
	}
	if last(r, "incVer(s)") >= last(r, "batVer(s)") {
		t.Errorf("at |D|=10 units incVer (%.3fs) is not faster than batVer (%.3fs)",
			last(r, "incVer(s)"), last(r, "batVer(s)"))
	}
}

// Figs 9(b)+(c): incremental time and shipment grow ~linearly in |∆D| and
// stay below batch at every point of the paper's sweep.
func TestShapeExp2(t *testing.T) {
	if testing.Short() {
		t.Skip("shape sweep")
	}
	r := runExp(t, "Exp-2")
	if g := last(r, "incKB") / first(r, "incKB"); g < 2.5 {
		t.Errorf("incremental shipment grew only %.2f× across a 5× |∆D| sweep; should be ~linear", g)
	}
	for _, p := range r.Points {
		if p.Values["incKB"] >= p.Values["batKB"] {
			t.Errorf("|∆D|=%v: incVer shipped %.0fKB ≥ batVer %.0fKB", p.X, p.Values["incKB"], p.Values["batKB"])
		}
	}
	if last(r, "|∆V|") <= first(r, "|∆V|") {
		t.Error("|∆V| did not grow with |∆D|")
	}
	if last(r, "incVer(s)") >= last(r, "batVer(s)") {
		t.Error("incVer slower than batVer at the largest ∆D of the paper's sweep")
	}
}

// Figs 9(d)/9(l): both algorithms scale with |Σ|; incremental stays ahead.
func TestShapeExp3(t *testing.T) {
	if testing.Short() {
		t.Skip("shape sweep")
	}
	for _, name := range []string{"Exp-3", "Exp-3-dblp"} {
		r := runExp(t, name)
		incCol, batCol := r.Columns[0], r.Columns[1]
		if last(r, incCol) >= last(r, batCol) {
			t.Errorf("%s: incremental (%.3fs) not faster than batch (%.3fs) at max |Σ|",
				r.Name, last(r, incCol), last(r, batCol))
		}
	}
}

// Figs 9(e)/9(j): the batch baselines' scaleup collapses (single
// coordinator); the incremental algorithms scale much better. Asserted on
// the deterministic *-scaleupB columns (busiest site's metered received
// bytes), not the wall-clock-derived sim columns, so machine load cannot
// flake the shape claim. How far ahead the incremental side must be is
// what holds at the Quick and Default scales alike: incVer's busiest site
// receives 2.3–2.6× less than batVer's relative to the base configuration
// (Exp-4, held to 1.25×); incHor's margin over batHor is real but thin
// (Exp-9: 0.129 vs 0.108 at Quick, 0.121 vs 0.107 at Default), so there
// the claim is the ordering, and the mechanism below carries the weight.
func TestShapeScaleup(t *testing.T) {
	if testing.Short() {
		t.Skip("shape sweep")
	}
	for _, exp := range []struct {
		name   string
		margin float64
	}{{"Exp-4", 1.25}, {"Exp-9", 1}} {
		r := runExp(t, exp.name)
		incSU, batSU := last(r, "inc-scaleupB"), last(r, "bat-scaleupB")
		if batSU > 0.35 {
			t.Errorf("%s: batch byte-scaleup %.2f at n=10, expected collapse (paper ≈ 0.2)", r.Name, batSU)
		}
		if incSU <= exp.margin*batSU {
			t.Errorf("%s: incremental byte-scaleup %.3f not above %.2f× batch %.3f", r.Name, incSU, exp.margin, batSU)
		}
		// The mechanism behind the collapse: the batch coordinator absorbs
		// essentially all shipped bytes, while the incremental algorithms
		// spread them across sites (busiest share → 1/n).
		if b := last(r, "bat-balance"); b < 0.9 {
			t.Errorf("%s: batch busiest-site share %.2f at n=10; expected a single-coordinator funnel", r.Name, b)
		}
		if b := last(r, "inc-balance"); b > 0.35 {
			t.Errorf("%s: incremental busiest-site share %.2f at n=10; expected spread load", r.Name, b)
		}
	}
}

// The scatter/gather engine may only change when messages fly, never what
// is sent: a sequential (one-worker) run and a parallel run of the same
// workload must meter identical bytes and messages. This is the parity
// contract the ExpFanout speedup numbers rest on. Parity is independent
// of link latency, so the test runs at the smallest nonzero RTT: enough
// to make the parallel runs concurrent, too little to wait on.
func TestFanoutParity(t *testing.T) {
	r, err := expFanout(Quick, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Points {
		if p.Values["seqKB"] != p.Values["parKB"] {
			t.Errorf("%s: sequential shipped %.3fKB, parallel %.3fKB; meters must be identical",
				p.Label, p.Values["seqKB"], p.Values["parKB"])
		}
		if p.Values["seqMsgs"] != p.Values["parMsgs"] {
			t.Errorf("%s: sequential sent %.0f messages, parallel %.0f; meters must be identical",
				p.Label, p.Values["seqMsgs"], p.Values["parMsgs"])
		}
		if p.Values["seqKB"] <= 0 {
			t.Errorf("%s: no bytes metered", p.Label)
		}
	}
}

// Fig 10: optVer reduces per-update eqid shipment on both datasets.
func TestShapeExp5(t *testing.T) {
	r := runExp(t, "Exp-5")
	for _, p := range r.Points {
		if p.Values["with-opt"] > p.Values["no-opt"] {
			t.Errorf("%s: optVer ships more eqids (%v) than naive (%v)", p.Label, p.Values["with-opt"], p.Values["no-opt"])
		}
	}
	if r.Points[0].Values["saved%"] < 30 {
		t.Errorf("TPCH eqid saving %.1f%%, expected substantial (paper: 55.5%%)", r.Points[0].Values["saved%"])
	}
	if r.Points[1].Values["saved%"] <= 0 {
		t.Errorf("DBLP eqid saving %.1f%%, expected > 0 (paper: 72.1%%)", r.Points[1].Values["saved%"])
	}
}

// Figs 9(f)–(i): horizontal mirrors of Exp-1..Exp-3. The batch
// horizontal detector is a tight local scan, so on loopback its bare
// wall clock is within noise of incHor at the Quick scale; the paper's
// measured times include shipping ∆D-induced state between sites. The
// time claims therefore compare compute plus the modeled network cost
// of the metered bytes (the deterministic *Sim(s) columns, as
// TestShapeScaleup does) — there incHor's ~30× smaller shipment
// dominates.
func horTotal(r *Result, side string) float64 {
	return last(r, side+"Hor(s)") + last(r, side+"Sim(s)")
}

func TestShapeHorizontal(t *testing.T) {
	if testing.Short() {
		t.Skip("shape sweep")
	}
	r6 := runExp(t, "Exp-6")
	for _, p := range r6.Points {
		if p.Values["incKB"] >= p.Values["batKB"] {
			t.Errorf("|D|=%v: incHor shipped %.0fKB ≥ batHor %.0fKB", p.X, p.Values["incKB"], p.Values["batKB"])
		}
	}
	if horTotal(r6, "inc") >= horTotal(r6, "bat") {
		t.Errorf("incHor (%.3fs) not faster than batHor (%.3fs) at |D|=10 units (compute + modeled network)",
			horTotal(r6, "inc"), horTotal(r6, "bat"))
	}

	r7 := runExp(t, "Exp-7")
	if g := last(r7, "incKB") / first(r7, "incKB"); g < 2 {
		t.Errorf("incHor shipment grew only %.2f× across a 5× |∆D| sweep", g)
	}

	r8 := runExp(t, "Exp-8")
	if horTotal(r8, "inc") >= horTotal(r8, "bat") {
		t.Errorf("incHor (%.3fs) not faster than batHor (%.3fs) at max |Σ| (compute + modeled network)",
			horTotal(r8, "inc"), horTotal(r8, "bat"))
	}
}

// Figs 11(a)/(b): the refined batch algorithms closing in as |∆D| grows —
// the incremental advantage must shrink monotonically in the large.
func TestShapeExp10(t *testing.T) {
	if testing.Short() {
		t.Skip("shape sweep")
	}
	for _, style := range []string{"vertical", "horizontal"} {
		r := runExp(t, "Exp-10-"+style)
		inc, ibat := r.Columns[0], r.Columns[1]
		firstRatio := first(r, inc) / first(r, ibat)
		lastRatio := last(r, inc) / last(r, ibat)
		if lastRatio <= firstRatio {
			t.Errorf("%s: inc/ibat ratio fell from %.2f to %.2f; should rise toward the crossover",
				style, firstRatio, lastRatio)
		}
		if firstRatio >= 1 {
			t.Errorf("%s: incremental should win clearly at small ∆D (ratio %.2f)", style, firstRatio)
		}
	}
}

// §6 ablation: MD5 tuple codes ship fewer bytes than raw tuples.
func TestShapeMD5(t *testing.T) {
	if testing.Short() {
		t.Skip("shape sweep")
	}
	r := runExp(t, "Ablation-md5")
	if r.Points[0].Values["KB"] >= r.Points[1].Values["KB"] {
		t.Errorf("MD5 coding (%.0fKB) did not beat raw tuples (%.0fKB)",
			r.Points[0].Values["KB"], r.Points[1].Values["KB"])
	}
}

func TestFormatRendersAllColumns(t *testing.T) {
	r := &Result{
		Name: "X", Figure: "F", Title: "T", XLabel: "x",
		Columns: []string{"a", "b"},
		Points:  []Point{{X: 1, Values: map[string]float64{"a": 1.5, "b": 200}}},
		Notes:   []string{"n"},
	}
	out := r.Format()
	for _, want := range []string{"X — F", "1.50", "200", "note: n"} {
		if !containsStr(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

// TestEveryFigurePinned: every experiment that reproduces a paper figure
// or §6 has its rows in an exact-count suite of the committed baseline —
// a suite of its own (Exp-5), or Exp-figures rows labelled
// experiment/x, one per point of a figures-table sweep — so a figure
// cannot be registered without its counts landing in BENCH_exact.json.
func TestEveryFigurePinned(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_exact.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed struct {
		Suites []struct {
			Name string
			Rows []struct {
				Row    string
				Values map[string]float64
			}
		}
	}
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	suiteRows := make(map[string]int)
	pinned := make(map[string]bool) // Exp-figures row labels
	perExp := make(map[string]int)  // Exp-figures rows per experiment
	for _, s := range committed.Suites {
		suiteRows[s.Name] = len(s.Rows)
		if s.Name != "Exp-figures" {
			continue
		}
		for _, r := range s.Rows {
			pinned[r.Row] = true
			exp, _, _ := strings.Cut(r.Row, "/")
			perExp[exp]++
			if len(r.Values) != len(figureExact) {
				t.Errorf("Exp-figures / %s: %d columns, want %v", r.Row, len(r.Values), figureExact)
			}
		}
	}
	figs := 0
	for _, e := range Experiments() {
		if !e.paperFigure() {
			continue
		}
		figs++
		rows := perExp[e.Name]
		if e.Workload != nil {
			rows = suiteRows[e.Name]
		}
		if rows == 0 {
			t.Errorf("%s (%s) has no rows in any suite of BENCH_exact.json", e.Name, e.Figure)
		}
	}
	if figs != len(figures)+4 {
		t.Errorf("%d paper-figure experiments, want the %d table rows plus Exp-4, 5, 9 and Ablation-md5", figs, len(figures))
	}
	for _, f := range figures {
		if perExp[f.name] != len(f.values) {
			t.Errorf("%s: %d pinned rows for %d sweep points", f.name, perExp[f.name], len(f.values))
		}
		for _, x := range f.values {
			if label := fmt.Sprintf("%s/%d", f.name, x); !pinned[label] {
				t.Errorf("Exp-figures lacks row %s", label)
			}
		}
	}
	if perExp["Exp-fanout"] == 0 {
		t.Error("Exp-fanout's meters are not pinned")
	}
}
