package session

import (
	"crypto/tls"
	"fmt"
	"net"
	"slices"
	"time"

	"repro/internal/partition"
	"repro/internal/sitehost"
	"repro/internal/xerr"
)

// Kind is the partition style behind a session.
type Kind int

const (
	// Centralized runs the single-site incremental maintainer: no
	// partition, no shipment, the ground-truth oracle.
	Centralized Kind = iota
	// Horizontal runs §6's incHor over a horizontal partition.
	Horizontal
	// Vertical runs §4/§5's incVer (+ optVer) over a vertical partition.
	Vertical
)

func (k Kind) String() string {
	switch k {
	case Centralized:
		return "centralized"
	case Horizontal:
		return "horizontal"
	case Vertical:
		return "vertical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// config collects the Open options.
type config struct {
	kind    Kind
	kindSet bool
	hScheme *partition.HorizontalScheme
	vScheme *partition.VerticalScheme

	useOptimizer bool
	disableMD5   bool
	maxFanout    int // -1 = engine default

	tcpAddrs  []string
	tcpRetry  time.Duration
	tcpTLS    *tls.Config
	tcpDialer func(addr string, timeout time.Duration) (net.Conn, error)

	ckptDir   string
	ckptEvery int

	journalDir    string
	journalEvery  int
	inDoubtBudget time.Duration
	inDoubtSet    bool

	storageDir  string
	cacheBudget int64
	budgetSet   bool
}

// Option configures Open.
type Option func(*config) error

// checkpointing folds the checkpoint knobs into the hello payload form.
func (c *config) checkpointing() sitehost.Checkpointing {
	return sitehost.Checkpointing{Dir: c.ckptDir, Every: c.ckptEvery}
}

// journalCompactEvery resolves the journal compaction interval.
func (c *config) journalCompactEvery() int {
	if c.journalEvery > 0 {
		return c.journalEvery
	}
	return 16
}

// pageCacheBudget resolves the storage page-cache budget: zero or unset
// is the default, a negative budget is unlimited.
func (c *config) pageCacheBudget() int64 {
	if c.cacheBudget == 0 {
		return defaultCacheBudget
	}
	return c.cacheBudget
}

// inDoubtRetryBudget resolves the in-process re-drive budget.
func (c *config) inDoubtRetryBudget() time.Duration {
	if c.inDoubtSet {
		return c.inDoubtBudget
	}
	if c.journalDir != "" {
		return 10 * time.Second
	}
	return 0
}

// numSites is a distributed session's site count, 0 for a centralized
// one.
func (c *config) numSites() int {
	switch c.kind {
	case Horizontal:
		return c.hScheme.NumSites()
	case Vertical:
		return c.vScheme.NumSites
	}
	return 0
}

func (c *config) setKind(k Kind) error {
	if c.kindSet && c.kind != k {
		return fmt.Errorf("session: conflicting partition styles %s and %s", c.kind, k)
	}
	c.kind, c.kindSet = k, true
	return nil
}

func (c *config) validate() error {
	if c.kind == Centralized {
		switch {
		case c.maxFanout >= 0:
			return fmt.Errorf("session: WithMaxFanout requires a distributed session")
		case len(c.tcpAddrs) > 0:
			return fmt.Errorf("session: WithTCPSites requires a distributed session")
		}
	}
	if n := c.numSites(); n > sitehost.MaxSites {
		return fmt.Errorf("session: %d sites, a deployment spans at most %d", n, sitehost.MaxSites)
	}
	if len(c.tcpAddrs) == 0 {
		switch {
		case c.tcpRetry > 0:
			return fmt.Errorf("session: WithTCPRetryBudget requires WithTCPSites")
		case c.tcpTLS != nil:
			return fmt.Errorf("session: WithTCPTLS requires WithTCPSites")
		case c.tcpDialer != nil:
			return fmt.Errorf("session: WithTCPDialer requires WithTCPSites")
		case c.ckptDir != "":
			return fmt.Errorf("session: WithCheckpointDir requires WithTCPSites (checkpoints live in the sited daemons)")
		}
	}
	if c.ckptEvery > 0 && c.ckptDir == "" {
		return fmt.Errorf("session: WithCheckpointEvery requires WithCheckpointDir")
	}
	if c.journalDir != "" {
		if len(c.tcpAddrs) == 0 {
			return fmt.Errorf("session: WithJournalDir requires WithTCPSites (the journal re-drives wire rounds)")
		}
		if c.ckptDir == "" {
			return fmt.Errorf("session: WithJournalDir requires WithCheckpointDir (resume leans on the daemons' durable marks)")
		}
	}
	if c.journalEvery > 0 && c.journalDir == "" {
		return fmt.Errorf("session: WithJournalEvery requires WithJournalDir")
	}
	if c.inDoubtSet && c.journalDir == "" {
		return fmt.Errorf("session: WithInDoubtRetryBudget requires WithJournalDir (in-doubt rounds re-drive from the journal mirror)")
	}
	if c.storageDir != "" && c.kind != Centralized {
		return fmt.Errorf("session: WithStorageDir requires a centralized session (the distributed engines keep per-site state)")
	}
	if c.budgetSet && c.storageDir == "" {
		return fmt.Errorf("session: WithPageCacheBudget requires WithStorageDir")
	}
	if c.useOptimizer && c.kind != Vertical {
		return fmt.Errorf("session: WithOptimizer requires a vertical session")
	}
	if c.disableMD5 && c.kind != Horizontal {
		return fmt.Errorf("session: WithoutMD5 requires a horizontal session")
	}
	return nil
}

// WithHorizontal partitions the relation horizontally under scheme and
// runs incHor.
func WithHorizontal(scheme *partition.HorizontalScheme) Option {
	return func(c *config) error {
		if scheme == nil {
			return fmt.Errorf("session: WithHorizontal: nil scheme")
		}
		c.hScheme = scheme
		return c.setKind(Horizontal)
	}
}

// WithVertical partitions the relation vertically under scheme and runs
// incVer.
func WithVertical(scheme *partition.VerticalScheme) Option {
	return func(c *config) error {
		if scheme == nil {
			return fmt.Errorf("session: WithVertical: nil scheme")
		}
		c.vScheme = scheme
		return c.setKind(Vertical)
	}
}

// WithOptimizer builds the vertical HEVs with §5's optVer beam search
// (falling back to the naive chains when those ship fewer eqids).
func WithOptimizer() Option {
	return func(c *config) error {
		c.useOptimizer = true
		return nil
	}
}

// WithoutMD5 ships raw values instead of 128-bit MD5 tuple codes in the
// horizontal protocols — §6's optimization switched off, for ablations.
func WithoutMD5() Option {
	return func(c *config) error {
		c.disableMD5 = true
		return nil
	}
}

// WithMaxFanout caps the scatter/gather engine's concurrent workers per
// round where a call can wait, i.e. over WithTCPSites (1 = the serial
// coordinator; 0 or unset = the network package's default). An
// in-process session runs its fan-outs inline, whatever the cap.
func WithMaxFanout(k int) Option {
	return func(c *config) error {
		if k < 0 {
			return fmt.Errorf("session: WithMaxFanout: negative cap %d", k)
		}
		c.maxFanout = k
		return nil
	}
}

// WithTCPSites deploys the session across real OS processes: site i's
// state lives in the sited daemon listening at addrs[i], bootstrapped
// over framed TCP, and every cross-site protocol round runs over those
// sockets. len(addrs) must equal the partition scheme's site count. The
// protocol, its message contents and the communication meters are
// bit-identical to the in-process loopback; the extra physical bytes
// (framing, call envelopes) are metered separately by
// Cluster().FrameBytes(). A daemon that stays unreachable past the
// retry budget fails the operation with ErrSiteDown. Every site needs a
// daemon of its own: a repeated address fails Open with ErrSiteDown, and
// so does a daemon that already hosts another site of the session.
func WithTCPSites(addrs ...string) Option {
	return func(c *config) error {
		if len(addrs) == 0 {
			return fmt.Errorf("session: WithTCPSites: no addresses")
		}
		// One daemon hosts one site: a repeated address would leave a
		// site without a daemon of its own.
		for j, a := range addrs {
			if i := slices.Index(addrs, a); i < j {
				return fmt.Errorf("session: WithTCPSites: site %d address %s repeats site %d's: %w", j, a, i, xerr.ErrSiteDown)
			}
		}
		c.tcpAddrs = append([]string(nil), addrs...)
		return nil
	}
}

// WithTCPRetryBudget bounds how long a TCP-sites session keeps redialing
// an unreachable daemon (exponential backoff) before a call fails with
// ErrSiteDown. Zero keeps the default (5s).
func WithTCPRetryBudget(d time.Duration) Option {
	return func(c *config) error {
		if d < 0 {
			return fmt.Errorf("session: WithTCPRetryBudget: negative budget %v", d)
		}
		c.tcpRetry = d
		return nil
	}
}

// WithTCPTLS wraps every daemon connection of a TCP-sites session in
// TLS with the given client configuration.
func WithTCPTLS(cfg *tls.Config) Option {
	return func(c *config) error {
		if cfg == nil {
			return fmt.Errorf("session: WithTCPTLS: nil config")
		}
		c.tcpTLS = cfg
		return nil
	}
}

// WithTCPDialer replaces the raw TCP dial of every daemon connection —
// the hook the chaos layer uses to interpose fault-injecting
// connections. TLS (if configured) is layered on top of its result.
func WithTCPDialer(dial func(addr string, timeout time.Duration) (net.Conn, error)) Option {
	return func(c *config) error {
		if dial == nil {
			return fmt.Errorf("session: WithTCPDialer: nil dialer")
		}
		c.tcpDialer = dial
		return nil
	}
}

// WithCheckpointDir makes a TCP-sites session crash-safe: each sited
// daemon persists its fragment, seeded per-rule state and marks under
// dir (site i in SiteDir(dir, i) = dir/site<i>), the session marks a
// durable point after every successful batch and rule change, and the
// driver keeps a bounded replay log of the calls since the last mark.
// A daemon that crashes and restarts recovers from its newest valid
// checkpoint and the driver transparently replays only the missing
// tail — under the original sequence numbers, so the protocol meters
// are unchanged. Requires WithTCPSites.
func WithCheckpointDir(dir string) Option {
	return func(c *config) error {
		if dir == "" {
			return fmt.Errorf("session: WithCheckpointDir: empty dir")
		}
		c.ckptDir = dir
		return nil
	}
}

// WithCheckpointEvery sets how many durable marks a daemon accumulates
// in its delta log before compacting into a full snapshot (default 8).
// Requires WithCheckpointDir.
func WithCheckpointEvery(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("session: WithCheckpointEvery: non-positive interval %d", n)
		}
		c.ckptEvery = n
		return nil
	}
}

// WithJournalDir makes the *driver* crash-safe, completing the crash
// story WithCheckpointDir starts for the sites: the session keeps a
// write-ahead journal under dir, logging every write round's intent
// durably before its first wire call and closing it (with the ∆V
// fingerprint) once the round's checkpoint marks are acknowledged. A
// session reopened over the same directory resumes instead of
// reseeding: driver state is folded back from the journal, the daemons
// are reclaimed by reconnect handshakes (zero re-metered wire calls on
// a clean-boundary crash), and a round the old driver died inside is
// re-driven under its original sequence numbers — the daemons' dedupe
// windows make the resume exactly-once. A corrupt journal is reset and
// the session starts fresh (see Journal().StartedCorrupt). Requires
// WithTCPSites and WithCheckpointDir.
func WithJournalDir(dir string) Option {
	return func(c *config) error {
		if dir == "" {
			return fmt.Errorf("session: WithJournalDir: empty dir")
		}
		c.journalDir = dir
		return nil
	}
}

// WithJournalEvery sets how many applied rounds the journal accumulates
// before compacting into a fresh base epoch (default 16). Requires
// WithJournalDir.
func WithJournalEvery(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("session: WithJournalEvery: non-positive interval %d", n)
		}
		c.journalEvery = n
		return nil
	}
}

// WithStorageDir runs a centralized session out-of-core: the maintained
// relation's tuples and the grouping indexes live in page-structured
// store files under dir (tuples.dat, groups.dat), so their resident
// memory is bounded by the page-cache budget — see WithPageCacheBudget —
// instead of |D|. The violation *marks*, their epoch tries (which carry
// the per-rule postings reads use) and the tuple-id index stay
// memory-resident, keeping reads and ∆V computation in-memory-fast. The
// stores must be empty: a session seeds them from rel and flushes after
// every applied batch or rule change. Requires a centralized session.
func WithStorageDir(dir string) Option {
	return func(c *config) error {
		if dir == "" {
			return fmt.Errorf("session: WithStorageDir: empty dir")
		}
		c.storageDir = dir
		return nil
	}
}

// WithPageCacheBudget bounds the approximate decoded bytes the storage
// page caches keep resident: half goes to the tuple store and 35% to
// the group store. Zero or unset keeps
// the default (64 MiB); negative is unlimited. Requires WithStorageDir.
func WithPageCacheBudget(bytes int64) Option {
	return func(c *config) error {
		c.cacheBudget = bytes
		c.budgetSet = true
		return nil
	}
}

// WithInDoubtRetryBudget bounds how long a journaled session keeps
// re-driving an in-doubt round in process (capped exponential backoff
// between attempts) before surfacing ErrBatchInDoubt. Zero disables
// in-process re-drives entirely — an in-doubt round then settles only
// on the next Open. Default 10s. Requires WithJournalDir.
func WithInDoubtRetryBudget(d time.Duration) Option {
	return func(c *config) error {
		if d < 0 {
			return fmt.Errorf("session: WithInDoubtRetryBudget: negative budget %v", d)
		}
		c.inDoubtBudget = d
		c.inDoubtSet = true
		return nil
	}
}
