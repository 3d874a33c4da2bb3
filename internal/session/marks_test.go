package session

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/centralized"
	"repro/internal/partition"
	"repro/internal/seglog"
	"repro/internal/sitehost"
	"repro/internal/workload"
	"repro/internal/xerr"
)

// TestMarksFanOutKeepsCounts: the checkpoint marks of a round go out
// concurrently, and that changes nothing a count can see — over real
// sockets, every round costs each site the same calls at
// WithMaxFanout(1) and (4), and every daemon's checkpoint directory
// recovers to the same sequence number (one mark per site per round,
// under the site's own numbering).
func TestMarksFanOutKeepsCounts(t *testing.T) {
	for _, kind := range []string{"horizontal", "vertical"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			const sites, rounds = 4, 5
			// run returns the per-round SiteCalls deltas and each daemon's
			// recovered LastSeq.
			run := func(fanout int) (deltas [][]uint64, recovered []uint64) {
				gen := workload.NewSized(workload.TPCH, 29, 600)
				rules := gen.Rules(4)
				rel := gen.Relation(160)
				root := t.TempDir()
				addrs, srvs := serveHosts(t, sites)
				opt := WithHorizontal(partition.HashHorizontal("c_name", sites))
				if kind == "vertical" {
					opt = WithVertical(partition.RoundRobinVertical(rel.Schema, sites))
				}
				sess, err := Open(rel, rules, opt,
					WithTCPSites(addrs...),
					WithCheckpointDir(root),
					WithCheckpointEvery(2), // rounds 2 and 4 rotate
					WithMaxFanout(fanout))
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				mirror := rel.Clone()
				prev := sess.SiteCalls()
				deltas = append(deltas, prev)
				for r := 0; r < rounds; r++ {
					updates := gen.Updates(mirror, 12, 0.6)
					if _, err := sess.ApplyBatch(context.Background(), updates); err != nil {
						t.Fatalf("fanout %d round %d: %v", fanout, r, err)
					}
					if err := updates.Normalize().Apply(mirror); err != nil {
						t.Fatal(err)
					}
					now := sess.SiteCalls()
					d := make([]uint64, sites)
					for i := range d {
						d[i] = now[i] - prev[i]
					}
					deltas, prev = append(deltas, d), now
				}
				if oracle := centralized.Detect(mirror, rules); !sess.Violations().Equal(oracle) {
					t.Fatalf("fanout %d: V diverged from centralized oracle", fanout)
				}
				for i, srv := range srvs {
					srv.Close()
					srv.Host().Abandon(seglog.Step(1 + i%4))
					host := sitehost.NewHost()
					stats, err := host.UseCheckpoints(sitehost.SiteDir(root, i))
					host.Close()
					if err != nil || !stats.Recovered {
						t.Fatalf("fanout %d site %d: recovery %+v, %v", fanout, i, stats, err)
					}
					if stats.LastSeq != prev[i] {
						t.Fatalf("fanout %d site %d recovered to seq %d, driver counted %d calls", fanout, i, stats.LastSeq, prev[i])
					}
					recovered = append(recovered, stats.LastSeq)
				}
				return deltas, recovered
			}
			serialDeltas, serialSeqs := run(1)
			fanDeltas, fanSeqs := run(4)
			if !reflect.DeepEqual(serialDeltas, fanDeltas) {
				t.Fatalf("per-round site calls differ:\n fanout 1 %v\n fanout 4 %v", serialDeltas, fanDeltas)
			}
			if !reflect.DeepEqual(serialSeqs, fanSeqs) {
				t.Fatalf("recovered LastSeq differ: fanout 1 %v, fanout 4 %v", serialSeqs, fanSeqs)
			}
		})
	}
}

// markFaultConn fails the writes that carry a checkpoint mark while
// armed, closing the connection as a torn socket would. (The envelope
// carries the method name in the clear.)
type markFaultConn struct {
	net.Conn
	armed *atomic.Bool
}

func (c *markFaultConn) Write(p []byte) (int, error) {
	if c.armed.Load() && bytes.Contains(p, []byte("chk.mark")) {
		c.Conn.Close()
		return 0, fmt.Errorf("injected: mark lost")
	}
	return c.Conn.Write(p)
}

// TestMarkFailureOnOneSiteQuarantinesRound: with the marks fanned out, a
// mark that cannot reach site 2 while sites 0, 1 and 3 take theirs still
// leaves the round in doubt — never half-committed — and the re-drive
// resends every site the same mark under the same number, which the
// three that served it answer from their windows.
func TestMarkFailureOnOneSiteQuarantinesRound(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 31, 500)
	rules := gen.Rules(3)
	rel := gen.Relation(120)
	const sites = 4
	ckpt, jdir := t.TempDir(), t.TempDir()
	addrs, srvs := serveHosts(t, sites)

	var armed atomic.Bool
	sess, err := Open(rel, rules,
		WithHorizontal(partition.HashHorizontal("c_name", sites)),
		WithTCPSites(addrs...),
		WithCheckpointDir(ckpt),
		WithJournalDir(jdir),
		WithMaxFanout(4),
		WithTCPRetryBudget(300*time.Millisecond),
		WithInDoubtRetryBudget(200*time.Millisecond),
		WithTCPDialer(func(addr string, timeout time.Duration) (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil || addr != addrs[2] {
				return nc, err
			}
			return &markFaultConn{Conn: nc, armed: &armed}, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	mirror := rel.Clone()

	armed.Store(true)
	before := sess.SiteCalls()
	first := gen.Updates(mirror, 12, 0.6)
	_, err = sess.ApplyBatch(context.Background(), first)
	if !errors.Is(err, xerr.ErrBatchInDoubt) || !errors.Is(err, xerr.ErrSiteDown) {
		t.Fatalf("round whose mark cannot reach site 2: got %v, want ErrBatchInDoubt wrapping ErrSiteDown", err)
	}
	if js := sess.Journal(); !js.InDoubt {
		t.Fatalf("journal stats after the failed mark = %+v, want InDoubt", js)
	}
	// Site 0 took its mark: its watermark is the driver's count.
	doubt := sess.SiteCalls()
	if doubt[0] <= before[0] {
		t.Fatalf("site 0 call count did not move across the round: %v -> %v", before, doubt)
	}
	st, err := sitehost.DecodeStatus(srvs[0].Host().StatusPayload())
	if err != nil || st.LastSeq != doubt[0] {
		t.Fatalf("site 0 served through %+v (err %v), driver counted %d: its mark did not land", st, err, doubt[0])
	}

	// The link heals; the next write settles the pending round first.
	armed.Store(false)
	if err := first.Normalize().Apply(mirror); err != nil {
		t.Fatal(err)
	}
	second := gen.Updates(mirror, 12, 0.6)
	if _, err := sess.ApplyBatch(context.Background(), second); err != nil {
		t.Fatalf("ApplyBatch after the link healed: %v", err)
	}
	if err := second.Normalize().Apply(mirror); err != nil {
		t.Fatal(err)
	}
	if js := sess.Journal(); js.InDoubt || js.Redriven != 1 {
		t.Fatalf("journal stats after the re-drive = %+v, want settled with one re-drive", js)
	}
	if oracle := centralized.Detect(mirror, rules); !sess.Violations().Equal(oracle) {
		t.Fatal("V diverged from centralized oracle after the re-driven round")
	}
	// Every daemon served exactly the calls the driver numbered: the
	// re-driven marks were deduplicated, not executed twice.
	for i, want := range sess.SiteCalls() {
		st, err := sitehost.DecodeStatus(srvs[i].Host().StatusPayload())
		if err != nil || st.LastSeq != want {
			t.Fatalf("site %d served through %+v (err %v), driver counted %d", i, st, err, want)
		}
	}
}
