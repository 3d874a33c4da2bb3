// horizontal_shards demonstrates incHor over an H-Store-style sharded
// deployment: a TPCH-like table hash-partitioned by customer across eight
// sites, with incremental violation maintenance under a mixed update
// stream and the MD5 tuple-coding ablation of §6. Everything is built
// through repro.Open.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	const (
		sites   = 8
		dbSize  = 12000
		updates = 3000
	)

	gen := repro.NewGenerator(repro.TPCH, 11, dbSize+updates)
	rules := gen.Rules(40)
	rel := gen.Relation(dbSize)
	scheme := repro.HashHorizontal("c_name", sites)

	batch := gen.Updates(rel, updates, 0.8)

	run := func(label string, extra ...repro.Option) {
		opts := append([]repro.Option{repro.WithHorizontal(scheme)}, extra...)
		sess, err := repro.Open(rel, rules, opts...)
		if err != nil {
			log.Fatal(err)
		}
		defer sess.Close()
		start := time.Now()
		delta, err := sess.ApplyBatch(context.Background(), batch)
		if err != nil {
			log.Fatal(err)
		}
		st := sess.Stats()
		fmt.Printf("%-22s |∆D|=%d → |∆V|=%d in %v; %d messages, %.1f KB shipped\n",
			label, len(batch), delta.Size(), time.Since(start).Round(time.Millisecond),
			st.Messages, float64(st.Bytes)/1024)
	}

	fmt.Printf("shards: %d rows over %d sites (hash by c_name), 40 CFDs\n\n", dbSize, sites)

	run("incHor (MD5 coding):")
	run("incHor (raw tuples):", repro.WithoutMD5())

	// Batch baseline for contrast: BatchDetect recomputes V from the
	// fragments, ignoring the indexes the session maintains.
	sess, err := repro.Open(rel, rules, repro.WithHorizontal(scheme))
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	start := time.Now()
	v, err := sess.BatchDetect()
	if err != nil {
		log.Fatal(err)
	}
	st := sess.Stats()
	fmt.Printf("\nbatHor on |D|=%d:       %d violating tuples in %v; %.1f KB shipped\n",
		rel.Len(), v.Len(), time.Since(start).Round(time.Millisecond), float64(st.Bytes)/1024)
}
