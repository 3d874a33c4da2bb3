package main

import (
	"path/filepath"

	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/session"
	"repro/internal/workload"
)

// spec is one workload. Sizes are fixed; only the length of the timed
// phase comes from the command line. The exact counts (wire meters,
// calls, marks, store faults) are taken over the first `meter` timed
// batches, so they repeat bit for bit whatever the box's speed; timings
// are taken over every timed batch.
type spec struct {
	name string
	why  string

	engine  string // "hor", "ver" or "cent"
	tcp     bool   // sites behind TCP, with checkpoints and the journal
	disk    bool   // out-of-core state under a 256 KiB page cache
	reads   bool   // one closed-loop reader beside the writer
	rows    int
	profile workload.Profile
	batch   int // updates per batch
	warm    int // untimed batches first: epoch tracking, pools and gob registration arm lazily
	meter   int // timed batches the exact counts cover
	opens   int // Opens per run; setup_s is their median, so a quick Open is repeated more often
}

const (
	numRules        = 50
	dataSeed        = 1 // of D and Σ; --seed drives ∆D
	pageCacheBudget = 256 << 10
)

// workloads are the six named workloads later issues refer to.
var workloads = []spec{
	{
		name:   "hor_tcp_durable",
		why:    "production cell, horizontal: netwire, sitehost, journal and checkpoints do most of the work; cold seeding is where chunked seeding must show",
		engine: "hor", tcp: true, rows: 1000, profile: workload.Churn, batch: 64, warm: 48, meter: 256, opens: 3,
	},
	{
		name:   "ver_tcp_durable",
		why:    "production cell, vertical: about 6x the messages of horizontal per batch plus eqid shipment, so per-frame cost dominates; the wire codec's claim lives here",
		engine: "ver", tcp: true, rows: 400, profile: workload.Churn, batch: 64, warm: 32, meter: 128, opens: 3,
	},
	{
		name:   "hor_loop_unit",
		why:    "single updates on loopback bypass wire, journal, checkpoint and store: site compute and per-round fixed cost are all there is; a wire-codec change must predict no change here",
		engine: "hor", rows: 2000, profile: workload.Churn, batch: 1, warm: 4096, meter: 32768, opens: 9,
	},
	{
		name:   "ver_loop_unit",
		why:    "single updates on loopback: about 27 metered messages per update make vertical, eqclass and Cluster metering the whole cost; same protocol code as ver_tcp_durable in waves of one",
		engine: "ver", rows: 2000, profile: workload.Churn, batch: 1, warm: 2048, meter: 16384, opens: 5,
	},
	{
		name:   "cent_mem_reads",
		why:    "centralized in memory with a reader beside the writer: detection, cfd marks and epoch publish do all the work, on the epoch tries reads share; also the single-threaded reference job",
		engine: "cent", reads: true, rows: 2000, profile: workload.Skew, batch: 256, warm: 128, meter: 512, opens: 15,
	},
	{
		name:   "cent_disk_spill",
		why:    "same engine on the out-of-core state, working set far above a 256 KiB page cache: storage faults, evictions, write-back and compaction dominate",
		engine: "cent", disk: true, rows: 2500, profile: workload.Skew, batch: 16, warm: 48, meter: 256, opens: 3,
	},
}

// engineLayer is the module whose protocol the workload runs: the prefix
// of its engine's per-layer metrics. Empty for a centralized workload.
func (sp spec) engineLayer() string {
	return map[string]string{"hor": "horizontal", "ver": "vertical"}[sp.engine]
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// options builds the session options of the workload. dir is this
// Open's own scratch directory; dep is nil unless the workload is TCP.
func (sp spec) options(schema *relation.Schema, dir string, dep *deployment) []session.Option {
	var opts []session.Option
	switch sp.engine {
	case "hor":
		opts = append(opts, session.WithHorizontal(partition.HashHorizontal("c_name", numSites)), session.WithMaxFanout(maxFanout))
	case "ver":
		opts = append(opts, session.WithVertical(partition.RoundRobinVertical(schema, numSites)), session.WithOptimizer(), session.WithMaxFanout(maxFanout))
	}
	if sp.tcp {
		opts = append(opts,
			session.WithTCPSites(dep.addrs()...),
			session.WithCheckpointDir(filepath.Join(dir, "ckpt")),
			session.WithJournalDir(filepath.Join(dir, "journal")))
		if dep.rec != nil {
			opts = append(opts, session.WithTCPDialer(dep.dialer()))
		}
	}
	if sp.disk {
		opts = append(opts, session.WithStorageDir(filepath.Join(dir, "store")), session.WithPageCacheBudget(pageCacheBudget))
	}
	return opts
}
