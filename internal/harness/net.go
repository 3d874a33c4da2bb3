package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/session"
	"repro/internal/sitehost"
	"repro/internal/workload"
)

// Exp-net measures the real-socket deployment: the same batch ∆D applied
// once through the in-process loopback cluster and once through a TCP
// session whose sites live behind framed sockets (in-process sitehost
// servers — the hermetic stand-in for cmd/sited daemons; the
// cross-process differential test covers separate OS processes). The two
// runs must land on bit-identical violation sets AND bit-identical wire
// meters — the deployment changes where bytes travel, never what the
// protocol ships — while the physical socket traffic (framing, call
// envelopes, bootstrap hellos) is metered separately as FrameBytes.

// NetRow is one (engine, batch size) measurement. All columns except the
// seconds are a pure function of the scale's seed.
type NetRow struct {
	Style     string // "hor" or "ver"
	BatchSize int

	Msgs, Bytes, Eqids int64 // asserted identical loopback vs TCP
	FrameBytes         int64 // physical socket bytes of the TCP run
	NetMarks           int   // |∆V| marks, identical between modes
	Violations         int   // final |V|, identical between modes

	LoopSeconds, NetSeconds float64
}

// NetBatchSizes are the swept |∆D| values (matching Exp-coalesce, so the
// real-socket rows sit beside the simulated-RTT ones).
func NetBatchSizes() []int { return CoalesceBatchSizes() }

// metersMatch compares the deterministic meter fields; BusyNanos is
// wall-clock and excluded.
func metersMatch(a, b network.Stats) bool {
	if a.Messages != b.Messages || a.Bytes != b.Bytes || a.Eqids != b.Eqids {
		return false
	}
	if len(a.PerPair) != len(b.PerPair) {
		return false
	}
	for k, v := range a.PerPair {
		if b.PerPair[k] != v {
			return false
		}
	}
	if len(a.RecvBytes) != len(b.RecvBytes) {
		return false
	}
	for i := range a.RecvBytes {
		if a.RecvBytes[i] != b.RecvBytes[i] {
			return false
		}
	}
	return true
}

// RunNet runs the loopback-vs-real-socket sweep at the given scale.
func RunNet(sc Scale) ([]NetRow, error) {
	var rows []NetRow
	for _, style := range []string{"hor", "ver"} {
		for _, batch := range NetBatchSizes() {
			row := NetRow{Style: style, BatchSize: batch}
			var vSnap [2]*cfd.Violations
			var net [2]*cfd.Delta
			var stats [2]network.Stats
			for mi, mode := range []string{"loop", "tcp"} {
				gen := workload.NewSized(workload.TPCH, sc.Seed, 8*sc.Unit)
				rules := gen.Rules(tpchRulesDefault)
				rel := gen.Relation(3 * sc.Unit)
				opts := []session.Option{session.WithVertical(partition.RoundRobinVertical(gen.Schema(), sc.Sites)), session.WithOptimizer()}
				if style == "hor" {
					opts = []session.Option{session.WithHorizontal(partition.HashHorizontal("c_name", sc.Sites))}
				}
				var srvs []*sitehost.Server
				closeSrvs := func() {
					for _, srv := range srvs {
						srv.Close()
					}
				}
				if mode == "tcp" {
					addrs := make([]string, sc.Sites)
					for i := range addrs {
						srv, err := sitehost.Serve(sitehost.NewHost(), "127.0.0.1:0", nil)
						if err != nil {
							closeSrvs()
							return nil, err
						}
						srvs = append(srvs, srv)
						addrs[i] = srv.Addr()
					}
					opts = append(opts, session.WithTCPSites(addrs...))
				}
				sys, err := session.Open(rel, rules, opts...)
				if err != nil {
					closeSrvs()
					return nil, err
				}
				updates := gen.Updates(rel, batch, 0.7)
				v0 := sys.Violations().Clone()
				start := time.Now()
				if _, err := sys.ApplyBatch(context.Background(), updates); err != nil {
					sys.Close()
					closeSrvs()
					return nil, err
				}
				elapsed := time.Since(start).Seconds()
				stats[mi] = sys.Stats()
				vSnap[mi] = sys.Violations().Clone()
				net[mi] = cfd.DeltaBetween(v0, vSnap[mi])
				if mode == "tcp" {
					row.FrameBytes = sys.Cluster().FrameBytes()
					row.NetSeconds = elapsed
				} else {
					row.LoopSeconds = elapsed
				}
				sys.Close()
				closeSrvs()
			}
			if !vSnap[0].Equal(vSnap[1]) {
				return nil, fmt.Errorf("net: %s/%d: loopback and TCP violation sets diverge", style, batch)
			}
			if net[0].String() != net[1].String() {
				return nil, fmt.Errorf("net: %s/%d: loopback and TCP net ∆V diverge", style, batch)
			}
			if !metersMatch(stats[0], stats[1]) {
				return nil, fmt.Errorf("net: %s/%d: loopback and TCP wire meters diverge:\nloop: %+v\ntcp:  %+v",
					style, batch, stats[0], stats[1])
			}
			row.Msgs, row.Bytes, row.Eqids = stats[1].Messages, stats[1].Bytes, stats[1].Eqids
			row.NetMarks = net[1].Size()
			row.Violations = vSnap[1].Len()
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// NetResult renders measured rows as the Exp-net table.
func NetResult(rows []NetRow) *Result {
	r := &Result{
		Name: "Exp-net", Figure: "deployment",
		Title:   "in-process loopback vs real-socket (framed TCP) deployment",
		XLabel:  "engine/|∆D|",
		Columns: []string{"msgs", "KB", "eqids", "frameKB", "overhead", "loop(s)", "net(s)"},
		Exact:   []string{"msgs", "bytes", "eqids", "frame_bytes", "net_marks", "violations"},
	}
	for _, row := range rows {
		r.Points = append(r.Points, Point{
			X:     float64(len(r.Points)),
			Label: fmt.Sprintf("%s/%d", row.Style, row.BatchSize),
			Values: map[string]float64{
				"msgs":     float64(row.Msgs),
				"KB":       kb(row.Bytes),
				"eqids":    float64(row.Eqids),
				"frameKB":  kb(row.FrameBytes),
				"overhead": ratio(float64(row.FrameBytes), float64(row.Bytes)),
				"loop(s)":  row.LoopSeconds,
				"net(s)":   row.NetSeconds,

				"bytes": float64(row.Bytes), "frame_bytes": float64(row.FrameBytes),
				"net_marks": float64(row.NetMarks), "violations": float64(row.Violations),
			},
		})
	}
	r.Notes = append(r.Notes,
		"loopback and TCP land on bit-identical V, net ∆V and wire meters (asserted): the socket changes where bytes travel, not what ships",
		"frameKB is physical socket traffic (framing, envelopes, bootstrap hellos) — the deployment cost the paper's meters exclude")
	return r
}
