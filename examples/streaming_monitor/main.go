// streaming_monitor drives a horizontally sharded detection session with
// continuous mixed-update traffic and prints a live per-batch monitor:
// the batch's ∆V, the maintained violation count, what crossed the wire,
// and how long apply took. A subscription consumes the same
// stream's ∆V events on the side — the shape of a downstream consumer —
// and a centralized replay cross-checks the final violation set.
//
// This is the shape of a production deployment of the paper's incHor:
// updates arrive in bursts, the violation set is continuously
// maintained, and per-batch cost tracks |∆D| + |∆V| rather than |D|.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	ctx := context.Background()
	const (
		sites    = 8
		baseRows = 12000
		numRules = 40
		batches  = 12
	)

	gen := repro.NewGenerator(repro.TPCH, 11, 2*baseRows)
	rules := gen.Rules(numRules)
	rel := gen.Relation(baseRows)

	sess, err := repro.Open(rel.Clone(), rules,
		repro.WithHorizontal(repro.HashHorizontal("c_name", sites)))
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	fmt.Printf("monitor: %d rows over %d shards, %d CFDs, %d initial violations\n\n",
		rel.Len(), sites, numRules, sess.Violations().Len())

	// A bursty stream: three quiet batches, then a 3¼× burst, repeated.
	newStream := func() *repro.UpdateStream {
		g := repro.NewGenerator(repro.TPCH, 11, 2*baseRows)
		base := g.Relation(baseRows) // advance the generator past the base ids
		return repro.NewUpdateStream(g, base, repro.StreamConfig{
			Profile:   repro.Burst,
			BatchSize: 600,
			Batches:   batches,
			InsFrac:   0.65,
			Seed:      11,
		})
	}

	// A downstream subscriber: every applied batch's ∆V arrives on the
	// subscription's channel; here it just tallies marks.
	sub := sess.Subscribe(batches + 1)
	defer sub.Cancel()
	subscriberMarks := make(chan int)
	go func() {
		total := 0
		for ev := range sub.C() {
			total += ev.Delta.Size()
		}
		subscriberMarks <- total
	}()

	fmt.Println("batch  size  +marks  -marks  |V|    wireKB  msgs  apply")
	sum, err := sess.Run(ctx, newStream(), repro.StreamOptions{
		OnBatch: func(b repro.StreamBatch, r repro.StreamBatchResult, _ repro.ReadSnapshot) {
			tag := " "
			if r.Size > 600 {
				tag = "*" // the burst
			}
			fmt.Printf("%4d%s  %4d  %6d  %6d  %5d  %6.1f  %4d  %s\n",
				r.Seq, tag, r.Size, r.AddedMarks, r.RemovedMarks, r.Violations,
				float64(r.WireBytes)/1024, r.WireMessages, r.Apply.Round(100_000))
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nstream total: %d updates (%d ins / %d del) in %d batches, %.1f KB shipped, net |∆V| = %d marks\n",
		sum.Updates, sum.Inserts, sum.Deletes, sum.Batches,
		float64(sum.WireBytes)/1024, sum.Net.Size())

	sub.Cancel()
	fmt.Printf("watch subscriber saw %d raw ∆V marks across the stream\n", <-subscriberMarks)

	// The conservation law: a centralized session fed the identical
	// stream must end on the identical violation set.
	oracle, err := repro.Open(rel, rules)
	if err != nil {
		log.Fatal(err)
	}
	defer oracle.Close()
	osum, err := oracle.Run(ctx, newStream(), repro.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if !sess.Violations().Equal(oracle.Violations()) {
		log.Fatal("distributed and centralized violation sets diverged")
	}
	fmt.Printf("cross-check: centralized replay agrees — |V| = %d tuples, net |∆V| = %d marks, 0 bytes shipped\n",
		oracle.Violations().Len(), osum.Net.Size())
}
