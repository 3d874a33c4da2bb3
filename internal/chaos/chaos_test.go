package chaos_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/chaos"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/seglog"
	"repro/internal/session"
	"repro/internal/sitehost"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xerr"
)

// siteSrv is one in-process "daemon": a sitehost server whose host can
// be crashed (dropped with its listener) and restarted warm from its
// checkpoint dir on the same address.
type siteSrv struct {
	srv  *sitehost.Server
	addr string
	dir  string
}

// startSites launches n in-process site servers checkpointing under
// root (site i in sitehost.SiteDir(root, i) — the same dirs the
// session's hellos will name).
func startSites(t *testing.T, n int, root string) []*siteSrv {
	t.Helper()
	out := make([]*siteSrv, n)
	for i := 0; i < n; i++ {
		srv, err := sitehost.Serve(sitehost.NewHost(), "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		s := &siteSrv{srv: srv, addr: srv.Addr(), dir: sitehost.SiteDir(root, i)}
		out[i] = s
		// The host too: its compactor may still be writing under root.
		t.Cleanup(func() { s.srv.Close(); s.srv.Host().Close() })
	}
	return out
}

// crashRestart kills the in-process daemon — listener down, host (and
// so the site's in-memory state) discarded, a snapshot being written
// behind the last mark stopped no later than step — and brings a fresh
// host up on the same address, recovered from the checkpoint dir.
func crashRestart(t *testing.T, s *siteSrv, step seglog.Step) sitehost.RecoveryStats {
	t.Helper()
	if err := s.srv.Close(); err != nil {
		t.Fatal(err)
	}
	s.srv.Host().Abandon(step)
	host := sitehost.NewHost()
	stats, err := host.UseCheckpoints(s.dir)
	if err != nil {
		t.Fatalf("recovering %s: %v", s.dir, err)
	}
	if !stats.Recovered {
		t.Fatalf("crash-restart of %s found no checkpoint", s.dir)
	}
	srv, err := sitehost.Serve(host, s.addr, nil)
	if err != nil {
		t.Fatalf("rebinding %s: %v", s.addr, err)
	}
	s.srv = srv
	return stats
}

// TestChaosRecoveryOracle is the crash-recovery acceptance test: under
// a seeded schedule of injected connection faults (dropped, duplicated
// and truncated frames), partition windows, and kill-and-restart of
// whole daemons at batch boundaries, every engine's maintained V must
// stay bit-identical to a fresh in-process centralized detection after
// every step. Seeds alternate horizontal and vertical deployments.
func TestChaosRecoveryOracle(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		kind := "horizontal"
		if seed%2 == 1 {
			kind = "vertical"
		}
		t.Run(fmt.Sprintf("seed%d_%s", seed, kind), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)*104729 + 17))
			gen := workload.NewSized(workload.TPCH, int64(seed)+900, 700)
			pool := gen.Rules(6)
			rel := gen.Relation(100 + rng.Intn(60))
			sites := 3
			root := t.TempDir()

			faults := chaos.Faults{Seed: int64(seed)}
			switch seed % 4 {
			case 0:
				faults.DropEvery = 6
			case 1:
				faults.DuplicateEvery = 7
			case 2:
				faults.TruncateEvery = 8
			case 3:
				faults.DropEvery, faults.DuplicateEvery = 9, 11
			}
			inj, err := chaos.NewInjector(faults)
			if err != nil {
				t.Fatal(err)
			}

			srvs := startSites(t, sites, root)
			addrs := make([]string, sites)
			for i, s := range srvs {
				addrs[i] = s.addr
			}
			opt := session.WithHorizontal(partition.HashHorizontal("c_name", sites))
			if kind == "vertical" {
				opt = session.WithVertical(partition.RoundRobinVertical(rel.Schema, sites))
			}
			sess, err := session.Open(rel, pool[:3], opt,
				session.WithTCPSites(addrs...),
				session.WithCheckpointDir(root),
				session.WithCheckpointEvery(2),
				session.WithTCPDialer(inj.Dialer()),
				session.WithTCPRetryBudget(10*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()

			mirror := rel.Clone()
			active := append(pool[:0:0], pool[:3]...)
			inForce := map[string]bool{pool[0].ID: true, pool[1].ID: true, pool[2].ID: true}
			check := func(step int, action string) {
				t.Helper()
				oracle := centralized.Detect(mirror, active)
				if !sess.Violations().Equal(oracle) {
					t.Fatalf("seed %d step %d (%s): V diverged from centralized oracle under faults %+v",
						seed, step, action, inj.Stats())
				}
			}
			batch := func(step int, action string) {
				t.Helper()
				updates := gen.Updates(mirror, 8+rng.Intn(16), 0.5+rng.Float64()*0.4)
				if _, err := sess.ApplyBatch(context.Background(), updates); err != nil {
					t.Fatalf("seed %d step %d (%s): ApplyBatch: %v", seed, step, action, err)
				}
				if err := updates.Normalize().Apply(mirror); err != nil {
					t.Fatal(err)
				}
				check(step, action)
			}

			check(0, "initial")
			for step := 1; step <= 8; step++ {
				switch rng.Intn(6) {
				case 0, 1:
					batch(step, "batch")
				case 2: // add a not-in-force rule, if any
					var candidate *cfd.CFD
					for i := range pool {
						if !inForce[pool[i].ID] {
							candidate = &pool[i]
							break
						}
					}
					if candidate == nil {
						continue
					}
					if _, err := sess.AddRules(*candidate); err != nil {
						t.Fatalf("seed %d step %d: AddRules: %v", seed, step, err)
					}
					inForce[candidate.ID] = true
					active = append(active, *candidate)
					check(step, "add "+candidate.ID)
				case 3: // remove a random in-force rule (keep at least one)
					if len(active) <= 1 {
						continue
					}
					victim := active[rng.Intn(len(active))]
					if _, err := sess.RemoveRules(victim.ID); err != nil {
						t.Fatalf("seed %d step %d: RemoveRules: %v", seed, step, err)
					}
					delete(inForce, victim.ID)
					kept := active[:0:0]
					for _, r := range active {
						if r.ID != victim.ID {
							kept = append(kept, r)
						}
					}
					active = kept
					check(step, "remove "+victim.ID)
				case 4: // crash a daemon at a batch boundary, restart warm
					victim := rng.Intn(sites)
					stats := crashRestart(t, srvs[victim], seglog.Step(1+(seed+step)%4))
					if stats.LastSeq == 0 {
						t.Fatalf("seed %d step %d: site %d recovered to seq 0", seed, step, victim)
					}
					// A boundary crash is fully covered by the acked mark:
					// the driver must not need to replay anything.
					before := sess.ReplayedCalls()
					batch(step, fmt.Sprintf("crash-restart site %d", victim))
					if got := sess.ReplayedCalls(); got != before {
						t.Fatalf("seed %d step %d: boundary crash replayed %d calls, want 0",
							seed, step, got-before)
					}
				case 5: // partition window healing under the retry budget
					inj.Partition()
					time.AfterFunc(100*time.Millisecond, inj.Heal)
					batch(step, "partition")
				}
			}
		})
	}
}

// TestDriverReplaysLostTail pins the delta-replay rejoin protocol at
// the transport level: a daemon crash mid-batch loses the acknowledged
// calls after the last mark (their log records are buffered, not yet
// flushed), and on reconnect the driver must detect the gap from the
// hello-ack status and resend exactly those calls from its replay log,
// under their original sequence numbers.
func TestDriverReplaysLostTail(t *testing.T) {
	schema, err := relation.NewSchema("r", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := cfd.Parse("r1: ([a] -> [b], (_, _))", 0)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	srv, err := sitehost.Serve(sitehost.NewHost(), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); srv.Host().Close() }()
	addr := srv.Addr()

	var sid [8]byte
	sid[0] = 7
	hellos, err := sitehost.HorizontalHellos(sid, schema, rules, 1,
		sitehost.Checkpointing{Dir: root, Every: 100})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := network.NewTCPTransport([]string{addr}, network.TCPConfig{
		Hellos: hellos, ReplayLog: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Seq 1: the mark snapshots (first mark) and prunes the replay log.
	if _, err := tr.Invoke(0, "chk.mark", nil); err != nil {
		t.Fatal(err)
	}
	// Seqs 2-4: idempotent engine calls after the mark. Their daemon-side
	// log records sit in the write buffer — a crash loses them.
	// Structurally mirrors horizontal's localDetectReq: gob matches
	// struct fields by name, not by type name.
	type detectReq struct{ Rule string }
	req, err := wire.Marshal(detectReq{Rule: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 3; i++ {
		if want, err = tr.Invoke(0, "h.localDetect", req); err != nil {
			t.Fatal(err)
		}
	}

	// Crash. The fresh host recovers the snapshot (seq 1) only.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Host().Abandon(seglog.StepDone)
	host := sitehost.NewHost()
	stats, err := host.UseCheckpoints(sitehost.SiteDir(root, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Recovered || stats.LastSeq != 1 || stats.Replayed != 0 {
		t.Fatalf("recovery stats = %+v, want Recovered to seq 1 with 0 local records", stats)
	}
	if srv, err = sitehost.Serve(host, addr, nil); err != nil {
		t.Fatal(err)
	}

	// Seq 5 reconnects, learns the daemon is at seq 1, replays 2-4 and
	// then performs the call — same answer as before the crash.
	got, err := tr.Invoke(0, "h.localDetect", req)
	if err != nil {
		t.Fatalf("call after crash: %v", err)
	}
	if tr.ReplayedCalls() != 3 {
		t.Fatalf("replayed %d calls, want 3", tr.ReplayedCalls())
	}
	if string(got) != string(want) {
		t.Fatalf("post-replay reply diverged: %q vs %q", got, want)
	}
	if calls := tr.SiteCalls(); calls[0] != 5 {
		t.Fatalf("site call meter = %d, want 5 (replays not re-metered)", calls[0])
	}
}

// TestListenerSideFaults injects faults on the daemon side of the wire
// (duplicated and delayed reply frames) and asserts the protocol result
// is unaffected.
func TestListenerSideFaults(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 41, 500)
	pool := gen.Rules(3)
	rel := gen.Relation(120)
	sites := 2
	root := t.TempDir()

	inj, err := chaos.NewInjector(chaos.Faults{Seed: 5, DuplicateEvery: 5, DelayEvery: 6, Delay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, sites)
	for i := 0; i < sites; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := sitehost.ServeListener(sitehost.NewHost(), inj.Listener(ln), nil)
		t.Cleanup(func() { srv.Close(); srv.Host().Close() })
		addrs[i] = srv.Addr()
	}
	sess, err := session.Open(rel, pool,
		session.WithHorizontal(partition.HashHorizontal("c_name", sites)),
		session.WithTCPSites(addrs...),
		session.WithCheckpointDir(root),
		session.WithTCPRetryBudget(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	mirror := rel.Clone()
	for step := 1; step <= 5; step++ {
		updates := gen.Updates(mirror, 15, 0.6)
		if _, err := sess.ApplyBatch(context.Background(), updates); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := updates.Normalize().Apply(mirror); err != nil {
			t.Fatal(err)
		}
		if oracle := centralized.Detect(mirror, pool); !sess.Violations().Equal(oracle) {
			t.Fatalf("step %d: V diverged under listener-side faults %+v", step, inj.Stats())
		}
	}
	st := inj.Stats()
	if st.Duplicated == 0 && st.Delayed == 0 {
		t.Fatalf("injector idle: %+v — the test exercised nothing", st)
	}
}

// sitedBin caches the one cmd/sited build shared by the cross-process
// tests in this binary.
var sitedBin struct {
	once sync.Once
	path string
	err  error
}

func sitedBinary(t *testing.T) string {
	t.Helper()
	sitedBin.once.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			sitedBin.err = err
			return
		}
		dir, err := os.MkdirTemp("", "sited-chaos-bin-")
		if err != nil {
			sitedBin.err = err
			return
		}
		bin := filepath.Join(dir, "sited")
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/sited")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			sitedBin.err = fmt.Errorf("go build ./cmd/sited: %v\n%s", err, out)
			return
		}
		sitedBin.path = bin
	})
	if sitedBin.err != nil {
		t.Fatal(sitedBin.err)
	}
	return sitedBin.path
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("go.mod not found above %s", dir)
		}
		dir = parent
	}
}

// TestCrossProcessCrashRestart kills (SIGKILL) and gracefully stops
// (SIGTERM) real sited processes between batches and asserts the
// restarted daemons rejoin warm: V stays equal to the centralized
// oracle and a boundary crash needs no wire replay.
func TestCrossProcessCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-process chaos test skipped in -short")
	}
	bin := sitedBinary(t)
	gen := workload.NewSized(workload.TPCH, 61, 500)
	pool := gen.Rules(3)
	rel := gen.Relation(140)
	sites := 3
	root := t.TempDir()

	procs := make([]*chaos.Sited, sites)
	addrs := make([]string, sites)
	for i := 0; i < sites; i++ {
		p, err := chaos.StartSited(bin, "127.0.0.1:0", sitehost.SiteDir(root, i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Kill() })
		procs[i], addrs[i] = p, p.Addr()
	}
	sess, err := session.Open(rel, pool,
		session.WithHorizontal(partition.HashHorizontal("c_name", sites)),
		session.WithTCPSites(addrs...),
		session.WithCheckpointDir(root),
		session.WithCheckpointEvery(3),
		session.WithTCPRetryBudget(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	mirror := rel.Clone()
	batch := func(action string) {
		t.Helper()
		updates := gen.Updates(mirror, 12, 0.6)
		if _, err := sess.ApplyBatch(context.Background(), updates); err != nil {
			t.Fatalf("%s: ApplyBatch: %v", action, err)
		}
		if err := updates.Normalize().Apply(mirror); err != nil {
			t.Fatal(err)
		}
		if oracle := centralized.Detect(mirror, pool); !sess.Violations().Equal(oracle) {
			t.Fatalf("%s: V diverged from centralized oracle", action)
		}
	}

	batch("warmup")
	// Crash: SIGKILL, no final checkpoint. The mark made the boundary
	// durable, so the restart needs no wire replay.
	if err := procs[1].Kill(); err != nil {
		t.Fatal(err)
	}
	if err := procs[1].Restart(); err != nil {
		t.Fatal(err)
	}
	batch("after SIGKILL restart")
	if n := sess.ReplayedCalls(); n != 0 {
		t.Fatalf("boundary SIGKILL replayed %d calls, want 0", n)
	}
	// Graceful stop: SIGTERM flushes a final checkpoint first.
	if err := procs[2].Terminate(); err != nil {
		t.Fatal(err)
	}
	if err := procs[2].Restart(); err != nil {
		t.Fatal(err)
	}
	batch("after SIGTERM restart")
}

// TestCrossProcessCorruptCheckpoint corrupts a killed daemon's newest
// snapshot on disk; the restarted daemon must refuse to load partial
// state (it starts empty, logging the corruption) and the reconnecting
// driver — whose replay log cannot reseed a site from scratch — must
// surface ErrSiteDown rather than silently diverge.
func TestCrossProcessCorruptCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-process chaos test skipped in -short")
	}
	bin := sitedBinary(t)
	gen := workload.NewSized(workload.TPCH, 67, 400)
	pool := gen.Rules(3)
	rel := gen.Relation(100)
	root := t.TempDir()

	p, err := chaos.StartSited(bin, "127.0.0.1:0", sitehost.SiteDir(root, 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Kill() })
	sess, err := session.Open(rel, pool,
		session.WithHorizontal(partition.HashHorizontal("c_name", 1)),
		session.WithTCPSites(p.Addr()),
		session.WithCheckpointDir(root),
		session.WithTCPRetryBudget(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	updates := gen.Updates(rel.Clone(), 10, 0.6)
	if _, err := sess.ApplyBatch(context.Background(), updates); err != nil {
		t.Fatal(err)
	}
	if err := p.Kill(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in every checkpoint snapshot: CRC must catch it.
	snaps, err := filepath.Glob(filepath.Join(sitehost.SiteDir(root, 0), "snap-*.ckpt"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots written before kill (err %v)", err)
	}
	for _, path := range snaps {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-1] ^= 0xFF
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Restart(); err != nil {
		t.Fatal(err)
	}
	_, err = sess.ApplyBatch(context.Background(), gen.Updates(rel.Clone(), 10, 0.6))
	if !errors.Is(err, xerr.ErrSiteDown) {
		t.Fatalf("batch against a daemon with a corrupt checkpoint: got %v, want ErrSiteDown", err)
	}
}
