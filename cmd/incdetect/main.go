// incdetect is the end-to-end tool: load a relation CSV and a rule file,
// partition it, detect violations, and optionally replay an update CSV
// incrementally — reporting ∆V and the communication meters.
//
// Usage:
//
//	incdetect -data tpch.csv -rules tpch_rules.txt -mode vertical -sites 10
//	incdetect -data tpch.csv -rules tpch_rules.txt -mode horizontal \
//	          -shard-attr c_name -updates tpch_updates.csv
//	incdetect -data tpch.csv -rules tpch_rules.txt -mode central
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "relation CSV (from datagen or relation.WriteCSV)")
		rulesPath = flag.String("rules", "", "CFD rule file, one rule per line")
		mode      = flag.String("mode", "central", "central, vertical or horizontal")
		sites     = flag.Int("sites", 10, "number of sites")
		shardAttr = flag.String("shard-attr", "", "horizontal: hash-partition on this attribute (default: tuple id)")
		optimize  = flag.Bool("optimize", true, "vertical: build HEVs with the §5 optimizer")
		updPath   = flag.String("updates", "", "update CSV to replay incrementally")
		netAddrs  = flag.String("net", "", "comma-separated sited daemon addresses: run the sites in those processes (overrides -sites)")
		verbose   = flag.Bool("v", false, "list violating tuples")
	)
	flag.Parse()
	if *dataPath == "" || *rulesPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	rel := loadRelation(*dataPath)
	rulesText, err := os.ReadFile(*rulesPath)
	if err != nil {
		log.Fatal(err)
	}
	rules, err := repro.ParseRules(string(rulesText))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d tuples × %d attrs, %d rules\n", rel.Len(), rel.Schema.Width(), len(rules))

	var opts []repro.Option
	if *netAddrs != "" {
		addrs := strings.Split(*netAddrs, ",")
		*sites = len(addrs)
		opts = append(opts, repro.WithTCPSites(addrs...))
	}
	switch *mode {
	case "central": // the default engine: no option
	case "vertical":
		opts = append(opts, repro.WithVertical(repro.RoundRobinVertical(rel.Schema, *sites)))
		if *optimize {
			opts = append(opts, repro.WithOptimizer())
		}
	case "horizontal":
		var scheme *repro.HorizontalScheme
		if *shardAttr != "" {
			scheme = repro.HashHorizontal(*shardAttr, *sites)
		} else {
			scheme = repro.IDHorizontal(*sites)
		}
		opts = append(opts, repro.WithHorizontal(scheme))
	default:
		log.Fatalf("unknown mode %q", *mode)
	}

	start := time.Now()
	sess, err := repro.Open(rel, rules, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	if p := sess.Plan(); p != nil {
		fmt.Printf("vertical plan ships %d eqids per unit update\n", p.Neqid())
	}

	fmt.Printf("initial violations: %d tuples in %v (%s mode, %d sites)\n",
		sess.Violations().Len(), time.Since(start).Round(time.Millisecond), *mode, *sites)
	if *verbose {
		fmt.Println(sess.Violations())
		for _, rc := range sess.Count() {
			if rc.Count > 0 {
				fmt.Printf("  %-12s %d tuples\n", rc.Rule, rc.Count)
			}
		}
	}

	if *updPath != "" {
		updates := loadUpdates(*updPath, rel.Schema)
		start := time.Now()
		delta, err := sess.ApplyBatch(context.Background(), updates)
		if err != nil {
			log.Fatal(err)
		}
		st := sess.Stats()
		fmt.Printf("applied |∆D|=%d in %v: |∆V|=%d (+%d/−%d marks)\n",
			len(updates), time.Since(start).Round(time.Millisecond),
			delta.Size(), delta.AddedMarks(), delta.RemovedMarks())
		fmt.Printf("shipment: %d messages, %.1f KB, %d eqids\n",
			st.Messages, float64(st.Bytes)/1024, st.Eqids)
		if *netAddrs != "" {
			fmt.Printf("physical socket traffic: %.1f KB (framing + envelopes over metered payload)\n",
				float64(sess.Cluster().FrameBytes())/1024)
		}
		m := sess.Measures()
		fmt.Printf("violations now: %d tuples (%d marks, |V|/|D| = %.3f)\n",
			m.ViolatingTuples, m.Marks, m.TupleRatio)
	}
}

func loadRelation(path string) *repro.Relation {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	rel, err := repro.ReadRelationCSV(f, "data")
	if err != nil {
		log.Fatal(err)
	}
	return rel
}

func loadUpdates(path string, schema *repro.Schema) repro.UpdateList {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	cr := csv.NewReader(f)
	header, err := cr.Read()
	if err != nil {
		log.Fatal(err)
	}
	if len(header) < 2 || header[0] != "op" || header[1] != "id" {
		log.Fatalf("update CSV must start with op,id columns, got %v", header)
	}
	var out repro.UpdateList
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatalf("line %d: %v", line, err)
		}
		id, err := strconv.ParseInt(row[1], 10, 64)
		if err != nil {
			log.Fatalf("line %d: bad id %q", line, row[1])
		}
		t, err := repro.NewTuple(schema, repro.TupleID(id), row[2:])
		if err != nil {
			log.Fatalf("line %d: %v", line, err)
		}
		kind := repro.Insert
		if row[0] == "delete" {
			kind = repro.Delete
		}
		out = append(out, repro.Update{Kind: kind, Tuple: t})
	}
	return out
}
