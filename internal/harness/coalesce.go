package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cfd"
	"repro/internal/partition"
	"repro/internal/session"
	"repro/internal/workload"
)

// Exp-coalesce measures what batch grouping buys: the same normalised ∆D
// applied once update by update (every update its own ApplyBatch — a wave
// of one: one probe broadcast / eqid delivery / vote per unit update, and
// on vertical one n(n−1) barrier per call) and once whole (one envelope
// per destination per phase per wave). Both runs go through the one
// protocol driver, land on bit-identical violation sets and net ∆V —
// RunCoalesce errors out otherwise — and ship identical eqid counts; what
// drops is the message count (O(|∆D| · n) → O(n) per phase) and, under a
// simulated link RTT, the wall-clock apply latency. The Unit* columns
// (unit_* in BENCH_exact.json) are the update-by-update run, Coal* the
// whole-batch one.

// CoalesceRow is one (engine, batch size) measurement of the sweep. The
// meter columns are deterministic in the scale's seed; the seconds are
// machine-dependent and stay out of the Result's Exact columns.
type CoalesceRow struct {
	Style     string // "hor" or "ver"
	BatchSize int

	UnitMsgs, CoalMsgs   int64
	UnitBytes, CoalBytes int64
	UnitEqids, CoalEqids int64
	NetMarks             int // |∆V| marks, identical between modes
	Violations           int // final |V|, identical between modes

	UnitSeconds, CoalSeconds float64
}

// CoalesceBatchSizes are the swept |∆D| values; 64 is the acceptance
// configuration (≥ 5× fewer messages per 64-update batch), 256 shows the
// gap widening as batches grow while coalesced messages stay ~O(n).
func CoalesceBatchSizes() []int { return []int{64, 256} }

// RunCoalesce runs the update-by-update vs whole-batch sweep at the given
// scale and simulated per-message RTT. Both runs consume the identical
// batch against identically seeded systems.
func RunCoalesce(sc Scale, rtt time.Duration) ([]CoalesceRow, error) {
	var rows []CoalesceRow
	for _, style := range []string{"hor", "ver"} {
		for _, batch := range CoalesceBatchSizes() {
			row := CoalesceRow{Style: style, BatchSize: batch}
			var vSnap [2]*cfd.Violations
			var net [2]*cfd.Delta
			for mi, unit := range []bool{true, false} {
				gen := workload.NewSized(workload.TPCH, sc.Seed, 8*sc.Unit)
				rules := gen.Rules(tpchRulesDefault)
				rel := gen.Relation(3 * sc.Unit)
				opts := []session.Option{session.WithVertical(partition.RoundRobinVertical(gen.Schema(), sc.Sites)), session.WithOptimizer()}
				if style == "hor" {
					opts = []session.Option{session.WithHorizontal(partition.HashHorizontal("c_name", sc.Sites))}
				}
				sys, err := session.Open(rel, rules, opts...)
				if err != nil {
					return nil, err
				}
				if rtt > 0 {
					sys.Cluster().SetLinkRTT(rtt)
				}
				updates := gen.Updates(rel, batch, 0.7).Normalize()
				step := len(updates)
				if unit {
					step = 1
				}
				v0 := sys.Violations().Clone()
				start := time.Now()
				for i := 0; i < len(updates); i += step {
					if _, err := sys.ApplyBatch(context.Background(), updates[i:i+step]); err != nil {
						return nil, err
					}
				}
				elapsed := time.Since(start).Seconds()
				st := sys.Stats()
				vSnap[mi] = sys.Violations().Clone()
				net[mi] = cfd.DeltaBetween(v0, vSnap[mi])
				if unit {
					row.UnitMsgs, row.UnitBytes, row.UnitEqids, row.UnitSeconds = st.Messages, st.Bytes, st.Eqids, elapsed
				} else {
					row.CoalMsgs, row.CoalBytes, row.CoalEqids, row.CoalSeconds = st.Messages, st.Bytes, st.Eqids, elapsed
				}
			}
			if !vSnap[0].Equal(vSnap[1]) {
				return nil, fmt.Errorf("coalesce: %s/%d: unit and coalesced violation sets diverge", style, batch)
			}
			if net[0].String() != net[1].String() {
				return nil, fmt.Errorf("coalesce: %s/%d: unit and coalesced net ∆V diverge", style, batch)
			}
			row.NetMarks = net[1].Size()
			row.Violations = vSnap[1].Len()
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// CoalesceResult renders measured rows as the Exp-coalesce table.
func CoalesceResult(rows []CoalesceRow, rtt time.Duration) *Result {
	r := &Result{
		Name: "Exp-coalesce", Figure: "protocol",
		Title:   fmt.Sprintf("∆D update by update vs whole through the batch-grouped rounds, %s RTT", rtt),
		XLabel:  "engine/|∆D|",
		Columns: []string{"unitMsgs", "coalMsgs", "msg÷", "unitKB", "coalKB", "eqids", "unit(s)", "coal(s)", "speedup"},
		Exact:   []string{"unit_msgs", "coal_msgs", "unit_bytes", "coal_bytes", "unit_eqids", "coal_eqids", "net_marks", "violations"},
	}
	for _, row := range rows {
		r.Points = append(r.Points, Point{
			X:     float64(len(r.Points)),
			Label: fmt.Sprintf("%s/%d", row.Style, row.BatchSize),
			Values: map[string]float64{
				"unitMsgs": float64(row.UnitMsgs),
				"coalMsgs": float64(row.CoalMsgs),
				"msg÷":     ratio(float64(row.UnitMsgs), float64(row.CoalMsgs)),
				"unitKB":   kb(row.UnitBytes),
				"coalKB":   kb(row.CoalBytes),
				"eqids":    float64(row.CoalEqids),
				"unit(s)":  row.UnitSeconds,
				"coal(s)":  row.CoalSeconds,
				"speedup":  ratio(row.UnitSeconds, row.CoalSeconds),

				"unit_msgs": float64(row.UnitMsgs), "coal_msgs": float64(row.CoalMsgs),
				"unit_bytes": float64(row.UnitBytes), "coal_bytes": float64(row.CoalBytes),
				"unit_eqids": float64(row.UnitEqids), "coal_eqids": float64(row.CoalEqids),
				"net_marks": float64(row.NetMarks), "violations": float64(row.Violations),
			},
		})
	}
	r.Notes = append(r.Notes,
		"both runs land on bit-identical V and net ∆V (asserted) and ship identical eqid counts",
		"a whole batch pays one envelope per destination per phase per wave: O(n) messages instead of O(|∆D|·n)",
		"unit* = every update its own ApplyBatch; on ver that includes one n(n−1) barrier per call")
	return r
}
