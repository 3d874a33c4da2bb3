package session

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/workload"
)

// TestCloseLeaksNoGoroutines is the goleak-style assertion for
// in-process sessions: whatever a session's fan-out rounds spawned is
// gone once Close returns (TestTCPCloseLeaksNoGoroutines is the
// real-socket twin).
func TestCloseLeaksNoGoroutines(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 11, 300)
	rules := gen.Rules(3)
	rel := gen.Relation(100)

	// Warm up runtime pools (timers, GC workers) before baselining.
	for i := 0; i < 2; i++ {
		s, err := Open(rel, rules, WithHorizontal(partition.HashHorizontal("c_name", 3)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyBatch(context.Background(), gen.Updates(rel, 5, 1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	base := runtime.NumGoroutine()

	for _, style := range []string{"horizontal", "vertical"} {
		var opts []Option
		switch style {
		case "horizontal":
			opts = []Option{WithHorizontal(partition.HashHorizontal("c_name", 4))}
		case "vertical":
			opts = []Option{WithVertical(partition.RoundRobinVertical(rel.Schema, 4))}
		}
		s, err := Open(rel, rules, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyBatch(context.Background(), gen.Updates(rel, 5, 1)); err != nil {
			t.Fatalf("%s: ApplyBatch: %v", style, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s: Close: %v", style, err)
		}
		// Double Close is a no-op.
		if err := s.Close(); err != nil {
			t.Fatalf("%s: second Close: %v", style, err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after Close: %d > baseline %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
