package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/network"
	"repro/internal/optimizer"
	"repro/internal/partition"
	"repro/internal/workload"
)

// tpchRules and dblpRules are the paper's |Σ| defaults.
const (
	tpchRulesDefault = 50
	dblpRulesDefault = 16
)

// figure is one row of §7's sweep table: one engine over one dataset
// along one axis. Sizes are in paper units — Scale.Unit rows for TPCH,
// Scale.DBLPUnit for DBLP — and the swept axis replaces its fixed size.
// Every point runs the incremental algorithm and one batch-side
// baseline: batVer/batHor recomputing V over D ⊕ ∆D, or with ibat the
// refined rebuild of Exp-10.
type figure struct {
	name, fig, title string
	style            string // "vertical" or "horizontal"
	dataset          workload.Dataset
	axis             axis
	values           []int
	// d and delta are |D| and |∆D| in units, rules |Σ|, hint the
	// generator's size hint in units.
	d, delta, rules, hint int
	insFrac               float64
	ibat                  bool
	// extra are the printed columns after the two time columns.
	extra []string
}

type axis int

const (
	axisD     axis = iota // |D|
	axisDelta             // |∆D|
	axisRules             // |Σ|
)

var (
	sweep5 = []int{2, 4, 6, 8, 10}
	kbCols = []string{"incKB", "batKB"}
	dvCols = []string{"incKB", "batKB", "|∆V|"}
)

// figures is §7's sweep table in paper order. Exp-4/9 (scaleupExp),
// Exp-5 (the planner's static cost), Ablation-md5 and Exp-fanout have
// renderers of their own over the same per-point runner.
//
// Exp-10 sweeps |∆D| past the paper's 2..10 with two larger points, so
// the crossover (paper: |∆D| ≈ 8M at |D| = 6M) is visible even though
// the absolute per-update constants differ from the authors' EC2 Python
// implementation.
var figures = []figure{
	{name: "Exp-1", fig: "Fig 9(a)", title: "TPCH vertical: time vs |D|", style: "vertical", dataset: workload.TPCH,
		axis: axisD, values: sweep5, delta: 6, rules: tpchRulesDefault, hint: 16, insFrac: 0.8, extra: kbCols},
	{name: "Exp-2", fig: "Fig 9(b)+(c)", title: "TPCH vertical: time and shipment vs |∆D|", style: "vertical", dataset: workload.TPCH,
		axis: axisDelta, values: sweep5, d: 10, rules: tpchRulesDefault, hint: 20, insFrac: 0.8, extra: dvCols},
	{name: "Exp-2-dblp", fig: "Fig 9(k)", title: "DBLP vertical: time vs |∆D|", style: "vertical", dataset: workload.DBLP,
		axis: axisDelta, values: []int{1, 2, 3, 4, 5}, d: 5, rules: dblpRulesDefault, hint: 10, insFrac: 0.8},
	{name: "Exp-3", fig: "Fig 9(d)", title: "TPCH vertical: time vs |Σ|", style: "vertical", dataset: workload.TPCH,
		axis: axisRules, values: []int{25, 50, 75, 100, 125}, d: 10, delta: 6, hint: 16, insFrac: 0.8},
	{name: "Exp-3-dblp", fig: "Fig 9(l)", title: "DBLP vertical: time vs |Σ|", style: "vertical", dataset: workload.DBLP,
		axis: axisRules, values: []int{8, 16, 24, 32, 40}, d: 5, delta: 3, hint: 10, insFrac: 0.8},
	{name: "Exp-6", fig: "Fig 9(f)", title: "TPCH horizontal: time vs |D|", style: "horizontal", dataset: workload.TPCH,
		axis: axisD, values: sweep5, delta: 6, rules: tpchRulesDefault, hint: 16, insFrac: 0.8, extra: []string{"incSim(s)", "batSim(s)", "incKB", "batKB"}},
	{name: "Exp-7", fig: "Fig 9(g)+(h)", title: "TPCH horizontal: time and shipment vs |∆D|", style: "horizontal", dataset: workload.TPCH,
		axis: axisDelta, values: sweep5, d: 10, rules: tpchRulesDefault, hint: 20, insFrac: 0.8, extra: dvCols},
	{name: "Exp-8", fig: "Fig 9(i)", title: "TPCH horizontal: time vs |Σ|", style: "horizontal", dataset: workload.TPCH,
		axis: axisRules, values: []int{25, 50, 75, 100, 125}, d: 10, delta: 6, hint: 16, insFrac: 0.8, extra: []string{"incSim(s)", "batSim(s)"}},
	{name: "Exp-10-vertical", fig: "Fig 11(a)", title: "TPCH vertical: incVer vs ibatVer (60% ins / 40% del)", style: "vertical", dataset: workload.TPCH,
		axis: axisDelta, values: []int{2, 4, 6, 8, 10, 14, 18}, d: 6, rules: tpchRulesDefault, hint: 16, insFrac: 0.6, ibat: true},
	{name: "Exp-10-horizontal", fig: "Fig 11(b)", title: "TPCH horizontal: incHor vs ibatHor (60% ins / 40% del)", style: "horizontal", dataset: workload.TPCH,
		axis: axisDelta, values: []int{2, 4, 6, 8, 10, 14, 18}, d: 6, rules: tpchRulesDefault, hint: 16, insFrac: 0.6, ibat: true},
}

// run measures the row's sweep at a scale: one point per axis value.
func (f figure) run(sc Scale) (*Result, error) {
	unit := sc.Unit
	if f.dataset == workload.DBLP {
		unit = sc.DBLPUnit
	}
	short, bat := "Ver", "bat"
	if f.style == "horizontal" {
		short = "Hor"
	}
	if f.ibat {
		bat = "ibat"
	}
	r := &Result{
		Name: f.name, Figure: f.fig, Title: f.title,
		Columns: append([]string{"inc" + short + "(s)", bat + short + "(s)"}, f.extra...),
	}
	switch f.axis {
	case axisD:
		r.XLabel = fmt.Sprintf("|D| (×%d tuples)", unit)
	case axisDelta:
		r.XLabel = fmt.Sprintf("|∆D| (×%d tuples)", unit)
	case axisRules:
		r.XLabel = "#CFDs"
	}
	for _, x := range f.values {
		sp := spec{
			dataset: f.dataset, style: f.style, sites: sc.Sites,
			dSize: f.d * unit, deltaSize: f.delta * unit, numRules: f.rules,
			insFrac: f.insFrac, seed: sc.Seed, sizeHint: f.hint * unit,
			useOptimizer: f.style == "vertical", nsPerByte: sc.NsPerByte,
			runInc: true, runBat: true, ibat: f.ibat,
		}
		switch f.axis {
		case axisD:
			sp.dSize = x * unit
		case axisDelta:
			sp.deltaSize = x * unit
		case axisRules:
			sp.numRules = x
		}
		o, err := run(sp)
		if err != nil {
			return nil, err
		}
		r.Points = append(r.Points, Point{X: float64(x), Values: o.with(map[string]float64{
			r.Columns[0]: o.incSeconds, r.Columns[1]: o.batSeconds,
			"incSim(s)": o.incSim, "batSim(s)": o.batSim,
			"incKB": kb(o.incStats.Bytes), "batKB": kb(o.batStats.Bytes),
			"|∆V|": float64(o.deltaMarks),
		})})
	}
	return r, nil
}

// scaleupExp implements Exp-4 (Fig 9(e), vertical) and Exp-9 (Fig 9(j),
// horizontal): n, |D| and |∆D| grow together; scaleup(k) is the simulated
// parallel elapsed time at the smallest configuration divided by the one
// at k. The simulated model charges each site its handler compute plus
// NsPerByte per received byte and takes the busiest site (perfect
// overlap); see network.Stats.SimParallelSeconds.
//
// Because the busy-time component is measured wall-clock, the sim-based
// scaleup is load-sensitive; the inc-scaleupB/bat-scaleupB columns are its
// deterministic twin, built from the busiest site's metered received
// bytes only (maxRecvKB at the base configuration over maxRecvKB at n).
// The shape claim is identical — the batch baseline funnels Θ(|D|) bytes
// into one coordinator, so its busiest-site load grows with n while the
// incremental algorithms keep it flat — and the meters never flake.
func scaleupExp(sc Scale, style, name, fig string) (*Result, error) {
	r := &Result{
		Name: name, Figure: fig,
		Title:   fmt.Sprintf("TPCH %s: scaleup vs n (|D|=|∆D|=n units)", style),
		XLabel:  "#partitions n",
		Columns: []string{"inc-scaleup", "bat-scaleup", "inc-scaleupB", "bat-scaleupB", "inc-balance", "bat-balance", "inc-sim(s)", "bat-sim(s)"},
	}
	var baseInc, baseBat, baseIncB, baseBatB float64
	for _, n := range []int{2, 4, 6, 8, 10} {
		o, err := run(spec{
			dataset: workload.TPCH, style: style, sites: n,
			dSize: n * sc.Unit, deltaSize: n * sc.Unit, numRules: tpchRulesDefault,
			insFrac: 0.8, seed: sc.Seed, sizeHint: 20 * sc.Unit,
			useOptimizer: true, nsPerByte: sc.NsPerByte,
			runInc: true, runBat: true,
		})
		if err != nil {
			return nil, err
		}
		incB, batB := maxRecv(o.incStats), maxRecv(o.batStats)
		if n == 2 {
			baseInc, baseBat = o.incSim, o.batSim
			baseIncB, baseBatB = incB, batB
		}
		r.Points = append(r.Points, Point{X: float64(n), Values: o.with(map[string]float64{
			"inc-scaleup":  ratio(baseInc, o.incSim),
			"bat-scaleup":  ratio(baseBat, o.batSim),
			"inc-scaleupB": ratio(baseIncB, incB),
			"bat-scaleupB": ratio(baseBatB, batB),
			"inc-balance":  balance(o.incStats),
			"bat-balance":  balance(o.batStats),
			"inc-sim(s)":   o.incSim,
			"bat-sim(s)":   o.batSim,
		})})
	}
	return r, nil
}

// maxRecv returns the busiest site's received bytes — the deterministic
// load proxy behind the *-scaleupB columns.
func maxRecv(st network.Stats) float64 {
	var max int64
	for _, b := range st.RecvBytes {
		if b > max {
			max = b
		}
	}
	return float64(max)
}

// balance is the busiest site's share of all received bytes: ~1/n for a
// perfectly spread load, →1 when one coordinator absorbs everything.
func balance(st network.Stats) float64 {
	var max, total int64
	for _, b := range st.RecvBytes {
		total += b
		if b > max {
			max = b
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) / float64(total)
}

// Exp5 reproduces Fig 10: the number of eqids shipped per unit update for
// vertically partitioned TPCH (|Σ|=50) and DBLP (|Σ|=16), with and
// without the §5 optimization. The static plan cost Neqid is exactly the
// paper's metric.
func Exp5(sc Scale) (*Result, error) {
	r := &Result{
		Name: "Exp-5", Figure: "Fig 10", Title: "eqid shipments per unit update: optVer vs naive",
		XLabel:  "dataset",
		Columns: []string{"no-opt", "with-opt", "saved%"},
		Exact:   []string{"no-opt", "with-opt"},
	}
	cases := []struct {
		ds       workload.Dataset
		numRules int
		hint     int
	}{
		{workload.TPCH, tpchRulesDefault, 16 * sc.Unit},
		{workload.DBLP, dblpRulesDefault, 10 * sc.DBLPUnit},
	}
	for _, c := range cases {
		gen := workload.NewSized(c.ds, sc.Seed, c.hint)
		rules := gen.Rules(c.numRules)
		scheme := partition.RoundRobinVertical(gen.Schema(), sc.Sites)
		in := optimizer.Input{NumSites: sc.Sites, AttrSites: scheme.AttrSites}
		for i := range rules {
			if rules[i].IsConstant() {
				continue // constant CFDs ship no eqids
			}
			in.Rules = append(in.Rules, optimizer.RuleSpec{ID: rules[i].ID, LHS: rules[i].LHS, RHS: rules[i].RHS})
		}
		naive, err := optimizer.NaiveChainPlan(in)
		if err != nil {
			return nil, err
		}
		opt, err := optimizer.Optimize(in, 5)
		if err != nil {
			return nil, err
		}
		nN, nO := float64(naive.Neqid()), float64(opt.Neqid())
		r.Points = append(r.Points, Point{X: float64(len(r.Points)), Label: string(c.ds), Values: map[string]float64{
			"no-opt": nN, "with-opt": nO, "saved%": 100 * (nN - nO) / nN,
		}})
	}
	r.Notes = append(r.Notes,
		"paper: TPCH 122→55 (55.5% saved), DBLP 61→17 (72.1% saved); rule sets are synthetic, the claim is the saving ratio")
	return r, nil
}

// ExpFanout measures the scatter/gather engine itself: the same 8-site
// TPCH workload driven once with sequential fan-outs (one worker, the
// pre-engine serial coordinator) and once in parallel, for the
// incremental and batch algorithms of both partition styles. Runs pay a
// simulated 100µs per-message network round-trip (the in-process loopback
// is otherwise instantaneous, which would hide exactly the latency a real
// deployment pays and parallel fan-out overlaps). The engine changes when
// messages fly, never what is sent, so the byte and message meters must
// be identical between the two runs of each row — which also grounds
// SimParallelSeconds: par(s) is a measured parallel elapsed time to put
// next to the simulated model.
func ExpFanout(sc Scale) (*Result, error) { return expFanout(sc, 100*time.Microsecond) }

// expFanout is ExpFanout at a configurable simulated RTT. The meter
// parity claim is latency-independent, so TestFanoutParity asserts it at
// a 1 ns RTT (concurrent rounds, no real sleeping in -short CI runs); at
// zero RTT an in-process round runs inline and "parallel" is sequential,
// and the speedup column is only meaningful with a real RTT.
func expFanout(sc Scale, rtt time.Duration) (*Result, error) {
	r := &Result{
		Name: "Exp-fanout", Figure: "engine",
		Title:   fmt.Sprintf("sequential vs parallel scatter/gather, n=8, %s RTT", rtt),
		XLabel:  "algorithm",
		Columns: []string{"seq(s)", "par(s)", "speedup", "seqKB", "parKB", "seqMsgs", "parMsgs"},
	}
	for _, c := range []struct {
		label string
		style string
		inc   bool
	}{
		{"incVer", "vertical", true},
		{"batVer", "vertical", false},
		{"incHor", "horizontal", true},
		{"batHor", "horizontal", false},
	} {
		base := spec{
			dataset: workload.TPCH, style: c.style, sites: 8,
			dSize: 3 * sc.Unit, deltaSize: sc.Unit, numRules: tpchRulesDefault,
			insFrac: 0.8, seed: sc.Seed, sizeHint: 8 * sc.Unit,
			useOptimizer: c.style == "vertical", nsPerByte: sc.NsPerByte,
			linkRTT: rtt,
			runInc:  c.inc, runBat: !c.inc,
		}
		seq := base
		seq.serialFanout = true
		so, err := run(seq)
		if err != nil {
			return nil, err
		}
		po, err := run(base)
		if err != nil {
			return nil, err
		}
		sSec, sSt := so.incSeconds, so.incStats
		pSec, pSt := po.incSeconds, po.incStats
		if !c.inc {
			sSec, sSt = so.batSeconds, so.batStats
			pSec, pSt = po.batSeconds, po.batStats
		}
		if sSt.Bytes != pSt.Bytes || sSt.Messages != pSt.Messages || sSt.Eqids != pSt.Eqids {
			return nil, fmt.Errorf("fanout: %s: sequential metered %d B / %d msgs / %d eqids, parallel %d / %d / %d",
				c.label, sSt.Bytes, sSt.Messages, sSt.Eqids, pSt.Bytes, pSt.Messages, pSt.Eqids)
		}
		r.Points = append(r.Points, Point{X: float64(len(r.Points)), Label: c.label, Values: po.with(map[string]float64{
			"seq(s)": sSec, "par(s)": pSec, "speedup": ratio(sSec, pSec),
			"seqKB": kb(sSt.Bytes), "parKB": kb(pSt.Bytes),
			"seqMsgs": float64(sSt.Messages), "parMsgs": float64(pSt.Messages),
		})})
	}
	r.Notes = append(r.Notes,
		"seqKB=parKB and seqMsgs=parMsgs by construction: the engine parallelizes delivery, not protocol")
	return r, nil
}

// MD5Ablation measures §6's tuple-coding optimization: incHor shipment
// bytes with and without MD5 codes on the same workload.
func MD5Ablation(sc Scale) (*Result, error) {
	r := &Result{
		Name: "Ablation-md5", Figure: "§6 optimization", Title: "incHor shipment with vs without MD5 coding",
		XLabel:  "coding",
		Columns: []string{"KB"},
	}
	for _, disable := range []bool{false, true} {
		o, err := run(spec{
			dataset: workload.TPCH, style: "horizontal", sites: sc.Sites,
			dSize: 6 * sc.Unit, deltaSize: 3 * sc.Unit, numRules: tpchRulesDefault,
			insFrac: 0.8, seed: sc.Seed, sizeHint: 10 * sc.Unit,
			disableMD5: disable, nsPerByte: sc.NsPerByte,
			runInc: true,
		})
		if err != nil {
			return nil, err
		}
		label := "md5"
		if disable {
			label = "raw"
		}
		r.Points = append(r.Points, Point{X: float64(len(r.Points)), Label: label, Values: o.with(map[string]float64{
			"KB": kb(o.incStats.Bytes),
		})})
	}
	return r, nil
}

// pinScale is the fixed scale Exp-figures runs every figure at, whatever
// the scale asked for: small enough that the whole of §7 costs a few
// seconds, large enough that every sweep point ships and marks something.
var pinScale = Scale{Unit: 100, DBLPUnit: 100, Sites: 5, Seed: 1, NsPerByte: 100}

// figureExact are the integer columns every figure point carries and
// Exp-figures commits: the meters of the incremental run and of the
// figure's batch-side baseline (batVer/batHor, or ibatVer/ibatHor in
// Exp-10), each side's busiest-site received bytes (Exp-4/9's load
// proxy), |∆V| and |V|. An algorithm a figure does not run reads zero.
var figureExact = []string{
	"inc_bytes", "inc_msgs", "inc_eqids", "inc_max_recv",
	"bat_bytes", "bat_msgs", "bat_eqids", "bat_max_recv",
	"delta_v", "v",
}

// figurePairs run one ∆D through both engines, so each pair must pin the
// same delta_v at every point: ∆V is the change to V, whoever made it.
var figurePairs = [][2]string{{"Exp-1", "Exp-6"}, {"Exp-2", "Exp-7"}, {"Exp-3", "Exp-8"}, {"Exp-4", "Exp-9"}, {"Exp-10-vertical", "Exp-10-horizontal"}}

func figuresWorkload(Scale) string {
	return fmt.Sprintf("every §7 figure but Exp-5 at 1M TPCH ≙ %d rows, 100K DBLP ≙ %d rows, n=%d sites (Exp-4/9: n=2..10; Exp-fanout: n=8, zero RTT), seed %d, at every scale",
		pinScale.Unit, pinScale.DBLPUnit, pinScale.Sites, pinScale.Seed)
}

// ExpFigures pins §7: every paper-figure experiment without a suite of
// its own (so all but Exp-5), then Exp-fanout at zero RTT, at pinScale —
// one row per point, labelled experiment/x, holding its figureExact
// columns. A figure registered later is pinned here by registering it.
func ExpFigures(Scale) (*Result, error) {
	r := &Result{
		Name: "Exp-figures", Figure: "§7 pins", Title: "exact meters of every figure at the pin scale",
		XLabel: "experiment/x", Columns: figureExact, Exact: figureExact,
	}
	var runs []func(Scale) (*Result, error)
	for _, e := range Experiments() {
		if e.paperFigure() && e.Workload == nil {
			runs = append(runs, e.Run)
		}
	}
	runs = append(runs, func(s Scale) (*Result, error) { return expFanout(s, 0) })
	for _, run := range runs {
		fr, err := run(pinScale)
		if err != nil {
			return nil, err
		}
		for _, p := range fr.Points {
			x := p.Label
			if x == "" {
				x = trimFloat(p.X)
			}
			values := make(map[string]float64, len(figureExact))
			for _, c := range figureExact {
				values[c] = p.Values[c]
			}
			r.Points = append(r.Points, Point{X: float64(len(r.Points)), Label: fr.Name + "/" + x, Values: values})
		}
	}
	deltaV := make(map[string]string)
	for _, p := range r.Points {
		name, x, _ := strings.Cut(p.Label, "/")
		deltaV[name] += fmt.Sprintf(" %s:%v", x, p.Values["delta_v"])
	}
	for _, pair := range figurePairs {
		if a, b := deltaV[pair[0]], deltaV[pair[1]]; a == "" || a != b {
			return nil, fmt.Errorf("figures: delta_v differs by engine: %s%s, %s%s", pair[0], a, pair[1], b)
		}
	}
	return r, nil
}

// Experiment names one runnable experiment of the evaluation.
type Experiment struct {
	// Name is the experiment id (matches the produced Result.Name) and
	// Figure the paper figure it reproduces.
	Name, Figure string
	Run          func(Scale) (*Result, error)
	// Workload describes the sweep's inputs at a scale. Only a sweep whose
	// Result declares Exact columns has one: those are the suites
	// BENCH_exact.json commits, the others are timing-only figures.
	Workload func(Scale) string
}

// Matches reports whether the filter is the experiment's name or a
// substring of its figure (every experiment matches the empty filter):
// "Exp-1" selects Exp-1 alone, "Fig 11" both Exp-10 sweeps.
func (e Experiment) Matches(filter string) bool {
	return e.Name == filter || strings.Contains(e.Figure, filter)
}

// paperFigure reports whether the experiment reproduces one of the
// paper's figures or §6's optimization.
func (e Experiment) paperFigure() bool {
	return strings.HasPrefix(e.Figure, "Fig ") || strings.HasPrefix(e.Figure, "§6")
}

// coalesceRTT is Exp-coalesce's simulated link RTT: the paper-era
// latency the in-process loopback hides, and the cost per-message
// overhead multiplies.
const coalesceRTT = 100 * time.Microsecond

// Experiments lists every experiment: the figures table, the paper's
// other figures, then the sweeps over what the reproduction added. The names are
// static so callers can select a subset before running anything (the
// sweeps are expensive; filtering output alone would still pay for all
// of them).
func Experiments() []Experiment {
	tpch := func(rows int, tail string) func(Scale) string {
		return func(sc Scale) string {
			return fmt.Sprintf("TPCH-like seed=%d |D|=%d |Σ|=%d n=%d sites%s", sc.Seed, rows*sc.Unit, tpchRulesDefault, sc.Sites, tail)
		}
	}
	batches := fmt.Sprintf(", batches of %v", CoalesceBatchSizes())
	exps := make([]Experiment, 0, len(figures)+16)
	for _, f := range figures {
		exps = append(exps, Experiment{Name: f.name, Figure: f.fig, Run: f.run})
	}
	return append(exps, []Experiment{
		{Name: "Exp-4", Figure: "Fig 9(e)", Run: func(s Scale) (*Result, error) {
			return scaleupExp(s, "vertical", "Exp-4", "Fig 9(e)")
		}},
		{Name: "Exp-5", Figure: "Fig 10", Run: Exp5, Workload: func(sc Scale) string {
			return fmt.Sprintf("seed=%d n=%d sites round-robin, variable rules of TPCH-like |Σ|=%d and DBLP-like |Σ|=%d; paper: TPCH 122 → 55, DBLP 61 → 17",
				sc.Seed, sc.Sites, tpchRulesDefault, dblpRulesDefault)
		}},
		{Name: "Exp-9", Figure: "Fig 9(j)", Run: func(s Scale) (*Result, error) {
			return scaleupExp(s, "horizontal", "Exp-9", "Fig 9(j)")
		}},
		{Name: "Ablation-md5", Figure: "§6 optimization", Run: MD5Ablation},
		{Name: "Exp-fanout", Figure: "engine", Run: ExpFanout},
		{Name: "Exp-figures", Figure: "§7 pins", Run: ExpFigures, Workload: figuresWorkload},
		{Name: "Exp-coalesce", Figure: "protocol",
			Run: sweep(func(s Scale) ([]CoalesceRow, error) { return RunCoalesce(s, coalesceRTT) },
				func(rows []CoalesceRow) *Result { return CoalesceResult(rows, coalesceRTT) }),
			Workload: tpch(3, batches)},
		{Name: "Exp-stream", Figure: "pipeline",
			Run: sweep(func(s Scale) ([]StreamRun, error) { return RunStream(s, StreamKnobs{}) }, StreamResult),
			Workload: func(sc Scale) string {
				return fmt.Sprintf("TPCH-like seed=%d n=%d sites, streams of churn|skew|burst", sc.Seed, sc.Sites)
			}},
		{Name: "Exp-query", Figure: "session", Run: ExpQuery},
		{Name: "Exp-query-read", Figure: "session", Run: sweep(RunQueryBench, QueryBenchResult),
			Workload: tpch(4, fmt.Sprintf(", read p99 under churn ≤ %d× idle", QueryContentionFactor))},
		{Name: "Exp-net", Figure: "deployment", Run: sweep(RunNet, NetResult), Workload: tpch(3, batches)},
		{Name: "Exp-recovery", Figure: "robustness", Run: sweep(RunRecovery, RecoveryResult), Workload: tpch(3, "")},
		{Name: "Exp-driver-recovery", Figure: "robustness", Run: sweep(RunDriverRecovery, DriverRecoveryResult), Workload: tpch(3, "")},
		{Name: "Exp-storage", Figure: "out-of-core",
			Run:      sweep(func(s Scale) (*StorageRun, error) { return RunStorage(s, StorageKnobs{}) }, StorageResult),
			Workload: storageWorkload},
		{Name: "Exp-hotpath", Figure: "meters", Run: ExpHotpath, Workload: hotpathWorkload},
	}...)
}

// sweep registers a typed sweep with the renderer that names its columns:
// the sweep runs once and its in-run assertions gate the table.
func sweep[T any](run func(Scale) (T, error), render func(T) *Result) func(Scale) (*Result, error) {
	return func(sc Scale) (*Result, error) {
		rows, err := run(sc)
		if err != nil {
			return nil, err
		}
		return render(rows), nil
	}
}

func kb(bytes int64) float64 { return float64(bytes) / 1024 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
