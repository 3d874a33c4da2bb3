// Package sitehost is the daemon half of the multi-process deployment:
// it hosts one horizontal or vertical detection site behind a framed TCP
// endpoint (netwire), bootstrapped by the driver's hello message. The
// cmd/sited binary is a thin main over this package; tests and the
// benchmark harness embed Hosts in-process (still over real sockets).
//
// Lifecycle: a Host starts empty. The first hello constructs the site —
// a one-site-populated cluster whose handlers are the same ones the
// in-process engines register — and records the driver's session id.
// Later hellos (reconnects, or duplicate connections) must carry the
// same session id; a hello flagged Reconnect while the host holds no
// state is rejected, because the daemon evidently lost the seeded state
// the driver is counting on. Calls are deduplicated by their per-site
// sequence number through a sliding window of recent replies, so a call
// resent across a reconnect — even arriving several frames late, as
// chaos duplicate injection produces — is served from the cache instead
// of executing twice.
//
// Crash safety: with UseCheckpoints (or a checkpoint dir in the hello),
// the host persists its state to versioned, CRC-checksummed snapshot
// files plus a per-call delta log (internal/checkpoint). Site state
// mutates only through the serialized Dispatch, so a snapshot at seq S
// plus the raw (seq, method, data) records after S reconstructs the
// exact state — including the reply window — by replay. The driver's
// "chk.mark" call delimits batches: the host appends and flushes a mark
// record before it answers, and every few marks it also hands its state,
// as bytes, to the store, which rotates the log and writes the snapshot
// behind the reply (see handleChk). On restart the newest valid
// checkpoint is loaded, the segments after it replayed, and the
// recovered lastSeq answered in the hello ack so the driver's transport
// replays only the calls the daemon missed.
package sitehost

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cfd"
	"repro/internal/checkpoint"
	"repro/internal/horizontal"
	"repro/internal/network"
	"repro/internal/optimizer"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/seglog"
	"repro/internal/vertical"
)

// Kind names in hellos.
const (
	KindHorizontal = "horizontal"
	KindVertical   = "vertical"
)

// replyWindowSize bounds the reply dedupe cache. The driver serializes
// calls per site, so duplicates normally trail by one frame; the window
// absorbs pathological reorderings (duplicate frames injected several
// calls late) without unbounded growth.
const replyWindowSize = 32

// DefaultCheckpointEvery is the snapshot compaction threshold: a
// compaction starts every N batch marks.
const DefaultCheckpointEvery = 8

// Hello is the bootstrap payload: everything a daemon needs to build
// one empty site that is protocol-compatible with the driver's cluster.
// The schema crosses the wire as name + attribute list (relation.Schema
// holds an unexported index rebuilt by NewSchema); the vertical plan is
// shipped rather than re-derived, so driver and daemon provably agree.
type Hello struct {
	Proto int
	// SessionID is the driver's 8-byte random identity. It crosses the
	// wire as a slice, not an [8]byte array: gob encodes byte slices as
	// length + raw bytes (fixed size), while arrays encode element-wise
	// varints whose length depends on the random values — which would
	// make the hello frame's size, and so the deterministic FrameBytes
	// baseline, vary run to run.
	SessionID []byte
	Kind      string
	Site      int
	NumSites  int

	SchemaName  string
	SchemaAttrs []string
	Rules       []cfd.CFD

	// Vertical only.
	VScheme *partition.VerticalScheme
	Plan    *optimizer.Plan

	// Checkpointing, optional: the driver's request that the daemon
	// persist this site's state. A sited started with -checkpoint-dir
	// keeps its own (authoritative) dir and ignores CheckpointDir.
	// Both fields gob-omit at their zero values, so hellos of
	// non-checkpointed deployments stay bit-identical to older builds.
	CheckpointDir   string
	CheckpointEvery int
}

// ProtoVersion guards against driver/daemon skew: it moves whenever the
// envelope or a call payload changes shape, or a method a driver may call
// is retired (2: binary envelope and positional payloads; 3:
// v.batchResolve carries a stage's node groups; 4: the per-update methods
// are retired, so a driver that would call them is refused here instead of
// hitting "no handler" mid-round; 5: the vertical same-site calls carry
// id, index and bitset columns over a shared rule numbering).
const ProtoVersion = 5

// Encode gob-encodes the hello.
func (h *Hello) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		return nil, fmt.Errorf("sitehost: encode hello: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeHello decodes a bootstrap payload.
func DecodeHello(data []byte) (*Hello, error) {
	var h Hello
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&h); err != nil {
		return nil, fmt.Errorf("sitehost: decode hello: %w", err)
	}
	return &h, nil
}

// HelloStatus is the daemon's answer riding a successful hello ack: how
// far it has processed. The driver's transport compares LastSeq with its
// own sequence counter and replays the gap from its replay log. The
// payload is attached only when LastSeq > 0, keeping first-handshake
// acks bit-identical to pre-checkpoint builds.
type HelloStatus struct {
	LastSeq uint64
}

// EncodeStatus gob-encodes a hello status payload.
func EncodeStatus(s *HelloStatus) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("sitehost: encode status: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeStatus decodes a hello status payload.
func DecodeStatus(data []byte) (*HelloStatus, error) {
	var s HelloStatus
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return nil, fmt.Errorf("sitehost: decode status: %w", err)
	}
	return &s, nil
}

// engineState is the checkpoint surface both hosted engines expose.
type engineState interface {
	Snapshot() ([]byte, error)
	Restore([]byte) error
}

// reply is one cached call result.
type reply struct {
	data []byte
	err  string
}

// RecoveryStats reports what UseCheckpoints restored.
type RecoveryStats struct {
	// Recovered is true when a valid checkpoint was loaded.
	Recovered bool
	// Epoch is the snapshot epoch the state came from.
	Epoch uint64
	// LastSeq is the highest call sequence number restored.
	LastSeq uint64
	// Replayed counts the delta-log records re-executed on top of the
	// snapshot, over every segment since it — the daemon-local replay
	// cost of the warm start.
	Replayed int
}

// Host is one hosted site: empty until bootstrapped, then dispatching
// framed calls into the site's registered handlers.
type Host struct {
	mu      sync.Mutex
	cluster *network.Cluster
	sid     [8]byte
	kind    string
	site    int
	engine  engineState
	// helloBytes is the encoded hello that built the site, persisted in
	// snapshots so recovery can rebuild the structure without a driver.
	helloBytes []byte
	// fromCheckpoint marks state restored from disk that no driver has
	// confirmed yet: a same-session reconnect claims it; a different
	// session's first contact discards it and bootstraps fresh.
	fromCheckpoint bool

	// callMu serializes Dispatch and guards the reply window and
	// checkpoint bookkeeping below.
	callMu  sync.Mutex
	lastSeq uint64
	window  map[uint64]reply
	order   []uint64 // window insertion order (ascending seq), for FIFO eviction

	ckpt       *checkpoint.Store
	ckptEvery  int
	marksSince int
	// logErr latches a delta-log append failure, or a compaction's;
	// surfaced at the next mark rather than failing the already-executed
	// call (which would desynchronize driver and daemon).
	logErr error
	// closed is set by Close and Abandon: the store is gone, so serving
	// on would acknowledge marks nothing makes durable.
	closed bool
}

// NewHost returns an empty host.
func NewHost() *Host { return &Host{window: make(map[uint64]reply)} }

// Hosting reports whether a site has been bootstrapped, and which.
func (h *Host) Hosting() (kind string, site int, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.kind, h.site, h.cluster != nil
}

// UseCheckpoints attaches a checkpoint store at dir and recovers the
// newest valid checkpoint, replaying its delta log. Call before serving.
// On a corrupt checkpoint the store stays attached (so the site can
// still checkpoint going forward) but the error — wrapping
// xerr.ErrCheckpointCorrupt — is returned and no partial state is
// loaded: the host stays empty and the driver must reseed in full.
func (h *Host) UseCheckpoints(dir string) (RecoveryStats, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.callMu.Lock()
	defer h.callMu.Unlock()
	if h.cluster != nil {
		return RecoveryStats{}, fmt.Errorf("sitehost: UseCheckpoints after bootstrap")
	}
	st, err := checkpoint.Open(dir)
	if err != nil {
		return RecoveryStats{}, err
	}
	h.ckpt = st
	if h.ckptEvery <= 0 {
		h.ckptEvery = DefaultCheckpointEvery
	}
	snap, recs, err := st.Recover()
	if err != nil {
		return RecoveryStats{}, err
	}
	if snap == nil {
		return RecoveryStats{}, nil
	}
	if err := h.restoreLocked(snap); err != nil {
		return RecoveryStats{}, err
	}
	for _, rec := range recs {
		h.replayLocked(rec)
	}
	h.fromCheckpoint = true
	return RecoveryStats{
		Recovered: true,
		Epoch:     snap.Epoch,
		LastSeq:   h.lastSeq,
		Replayed:  len(recs),
	}, nil
}

// CheckpointEpoch returns the current snapshot epoch (0 = none yet).
func (h *Host) CheckpointEpoch() uint64 {
	h.callMu.Lock()
	defer h.callMu.Unlock()
	if h.ckpt == nil {
		return 0
	}
	return h.ckpt.Epoch()
}

// restoreLocked rebuilds the site from a snapshot. Both locks held. The
// build goes through locals and commits only on full success, so a
// failure leaves the host empty rather than half-restored.
func (h *Host) restoreLocked(snap *checkpoint.Snapshot) error {
	hello, err := DecodeHello(snap.Hello)
	if err != nil {
		return err
	}
	cluster, engine, err := buildSite(hello)
	if err != nil {
		return err
	}
	if err := engine.Restore(snap.Engine); err != nil {
		return err
	}
	h.cluster, h.engine = cluster, engine
	copy(h.sid[:], hello.SessionID)
	h.kind, h.site = hello.Kind, hello.Site
	h.helloBytes = append([]byte(nil), snap.Hello...)
	h.window = make(map[uint64]reply, len(snap.Window))
	h.order = nil
	win := append([]checkpoint.Reply(nil), snap.Window...)
	sort.Slice(win, func(i, j int) bool { return win[i].Seq < win[j].Seq })
	for _, r := range win {
		h.remember(r.Seq, r.Data, r.Err)
	}
	h.lastSeq = snap.LastSeq
	return nil
}

// replayLocked re-executes one delta-log record during recovery. Replay
// never re-appends to the log (the record is already there) and caches
// whatever the re-execution returns — determinism makes it the same
// reply the original call got.
func (h *Host) replayLocked(rec checkpoint.Record) {
	if strings.HasPrefix(rec.Method, "chk.") {
		h.remember(rec.Seq, nil, "")
		return
	}
	resp, err := h.cluster.Dispatch(network.SiteID(h.site), rec.Method, rec.Data)
	errStr := ""
	if err != nil {
		errStr = err.Error()
	}
	h.remember(rec.Seq, resp, errStr)
}

// buildSite constructs a site cluster from a hello (already
// proto-checked for wire hellos; snapshot hellos were checked when first
// received).
func buildSite(hello *Hello) (*network.Cluster, engineState, error) {
	if hello.Site < 0 || hello.Site >= hello.NumSites {
		return nil, nil, fmt.Errorf("sitehost: site %d out of range [0,%d)", hello.Site, hello.NumSites)
	}
	schema, err := relation.NewSchema(hello.SchemaName, hello.SchemaAttrs)
	if err != nil {
		return nil, nil, err
	}
	cluster := network.NewCluster(hello.NumSites)
	id := network.SiteID(hello.Site)
	switch hello.Kind {
	case KindHorizontal:
		hs, err := horizontal.HostSiteState(cluster, id, schema, hello.Rules)
		if err != nil {
			return nil, nil, err
		}
		return cluster, hs, nil
	case KindVertical:
		if hello.VScheme == nil || hello.Plan == nil {
			return nil, nil, fmt.Errorf("sitehost: vertical hello without scheme or plan")
		}
		vs, err := vertical.HostSiteState(cluster, id, schema, hello.VScheme, hello.Plan, hello.Rules)
		if err != nil {
			return nil, nil, err
		}
		return cluster, vs, nil
	default:
		return nil, nil, fmt.Errorf("sitehost: unknown site kind %q", hello.Kind)
	}
}

// Bootstrap applies one hello: constructing the site on first contact,
// verifying session and site identity afterwards. reconnect is the
// transport's flag that the driver has completed a handshake before —
// arriving at an empty host it means the daemon lost its state, which is
// unrecoverable without a checkpoint, so the hello is rejected and the
// driver surfaces ErrSiteDown. State restored from a checkpoint is claimed by a
// same-session reconnect; a different session's first contact discards
// it (that session is gone for good) and bootstraps fresh.
func (h *Host) Bootstrap(data []byte, reconnect bool) error {
	hello, err := DecodeHello(data)
	if err != nil {
		return err
	}
	if hello.Proto != ProtoVersion {
		return fmt.Errorf("sitehost: protocol version %d, daemon speaks %d", hello.Proto, ProtoVersion)
	}
	if len(hello.SessionID) != len(h.sid) {
		return fmt.Errorf("sitehost: session id is %d bytes, want %d", len(hello.SessionID), len(h.sid))
	}
	var sid [8]byte
	copy(sid[:], hello.SessionID)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.callMu.Lock()
	defer h.callMu.Unlock()
	if hello.CheckpointEvery > 0 {
		h.ckptEvery = hello.CheckpointEvery
	}
	if h.cluster != nil {
		if h.sid == sid {
			// Same session: reconnect or duplicate connection, which
			// resend this site's own hello. A hello for another site of
			// the session means two of its sites were pointed at one
			// daemon; serving both would merge their state.
			if n := h.cluster.NumSites(); hello.Kind != h.kind || hello.Site != h.site || hello.NumSites != n {
				return fmt.Errorf("sitehost: this session's %s site %d of %d is hosted here, refusing its %s site %d of %d",
					h.kind, h.site, n, hello.Kind, hello.Site, hello.NumSites)
			}
			// A reconnect claims any checkpoint-recovered state.
			if reconnect {
				h.fromCheckpoint = false
			}
			return nil
		}
		if h.fromCheckpoint && !reconnect {
			// Recovered state belongs to a session that will never
			// return (a returning driver would flag Reconnect): a fresh
			// session claims the daemon, discarding the stale state.
			h.dropStateLocked()
		} else {
			return fmt.Errorf("sitehost: already hosting %s site %d for another session", h.kind, h.site)
		}
	}
	if reconnect {
		return fmt.Errorf("sitehost: site state lost: reconnecting driver found an empty daemon")
	}
	// Fresh bootstrap. The hello may request checkpointing; a dir set by
	// the daemon itself (sited -checkpoint-dir) is authoritative.
	if h.ckpt == nil && hello.CheckpointDir != "" {
		st, err := checkpoint.Open(hello.CheckpointDir)
		if err != nil {
			return fmt.Errorf("sitehost: checkpoint dir: %w", err)
		}
		h.ckpt = st
		if h.ckptEvery <= 0 {
			h.ckptEvery = DefaultCheckpointEvery
		}
	}
	cluster, engine, err := buildSite(hello)
	if err != nil {
		return err
	}
	if h.ckpt != nil {
		// Any on-disk checkpoints describe a dead session; clear them so
		// epoch numbering restarts and the first mark snapshots.
		if err := h.ckpt.Reset(); err != nil {
			return fmt.Errorf("sitehost: checkpoint reset: %w", err)
		}
	}
	h.cluster, h.engine = cluster, engine
	h.sid, h.kind, h.site = sid, hello.Kind, hello.Site
	h.helloBytes = append([]byte(nil), data...)
	return nil
}

// dropStateLocked clears the hosted site (both locks held), keeping the
// checkpoint store attached for the next session.
func (h *Host) dropStateLocked() {
	h.cluster, h.engine = nil, nil
	h.sid = [8]byte{}
	h.kind, h.site = "", 0
	h.helloBytes = nil
	h.fromCheckpoint = false
	h.lastSeq = 0
	h.window = make(map[uint64]reply)
	h.order = nil
	h.marksSince = 0
	h.logErr = nil
}

// StatusPayload returns the hello-ack status for the current state, or
// nil when no call has been served yet (first handshakes then stay
// bit-identical to pre-checkpoint builds).
func (h *Host) StatusPayload() []byte {
	h.callMu.Lock()
	defer h.callMu.Unlock()
	if h.lastSeq == 0 {
		return nil
	}
	b, err := EncodeStatus(&HelloStatus{LastSeq: h.lastSeq})
	if err != nil {
		return nil
	}
	return b
}

// remember caches a reply in the dedupe window, evicting FIFO. A seq
// below lastSeq (a duplicate so late it fell out of the window) never
// regresses the progress watermark.
func (h *Host) remember(seq uint64, data []byte, errStr string) {
	if seq > h.lastSeq {
		h.lastSeq = seq
	}
	if seq == 0 {
		return
	}
	if _, ok := h.window[seq]; ok {
		return
	}
	h.window[seq] = reply{data: data, err: errStr}
	h.order = append(h.order, seq)
	if len(h.order) > replyWindowSize {
		delete(h.window, h.order[0])
		h.order = h.order[1:]
	}
}

// Dispatch runs one call against the hosted site, deduplicating by
// sequence number: a repeat of any windowed seq (a resend after a torn
// connection, or an injected duplicate frame arriving late) is answered
// from the cache without re-executing. "chk."-prefixed methods are
// checkpoint-control calls handled by the host itself.
func (h *Host) Dispatch(seq uint64, method string, data []byte) ([]byte, string) {
	h.mu.Lock()
	cluster := h.cluster
	site := h.site
	h.mu.Unlock()
	if cluster == nil {
		return nil, "sitehost: call before bootstrap"
	}
	h.callMu.Lock()
	defer h.callMu.Unlock()
	if h.closed {
		return nil, "sitehost: host closed"
	}
	if seq != 0 {
		if r, ok := h.window[seq]; ok {
			return r.data, r.err
		}
		if seq <= h.lastSeq {
			// Below the dedupe window's floor: the call was served, but
			// its cached reply has been evicted. Re-executing it would
			// silently corrupt site state, so refuse loudly — a driver
			// this far behind must not be rejoined.
			return nil, fmt.Sprintf("sitehost: seq %d below the dedupe window (served through %d)", seq, h.lastSeq)
		}
	}
	if strings.HasPrefix(method, "chk.") {
		return h.handleChk(seq, method)
	}
	resp, err := cluster.Dispatch(network.SiteID(site), method, data)
	errStr := ""
	if err != nil {
		errStr = err.Error()
	}
	h.remember(seq, resp, errStr)
	// Log after execution, only once a snapshot exists (seeding calls
	// before the first mark are captured by that first snapshot, not
	// call-by-call). A log failure is latched and surfaced at the next
	// mark — failing an already-executed call would desync the driver.
	if h.ckpt != nil && h.ckpt.Epoch() > 0 && h.logErr == nil {
		if e := h.ckpt.Append(checkpoint.Record{Seq: seq, Method: method, Data: data}); e != nil {
			h.logErr = e
		}
	}
	return resp, errStr
}

// handleChk serves the checkpoint-control methods. callMu held.
//
// A mark is acknowledged — and remembered in the dedupe window, so that
// a resend can be answered "ok" — only once its record is flushed to the
// current segment. Every ckptEvery marks the host then also captures its
// state and lets the store rotate the log; the snapshot file is written
// behind the reply, and a mark that falls due while that is still going
// on is a plain mark, the compaction starting at the next one.
func (h *Host) handleChk(seq uint64, method string) ([]byte, string) {
	if method != "chk.mark" {
		return nil, fmt.Sprintf("sitehost: unknown checkpoint method %q", method)
	}
	if h.ckpt == nil {
		// Not checkpointing: the mark is a no-op batch delimiter.
		h.remember(seq, nil, "")
		return nil, ""
	}
	if h.logErr != nil {
		return nil, fmt.Sprintf("sitehost: checkpoint delta log failed: %v", h.logErr)
	}
	if h.ckpt.Epoch() == 0 {
		// The first snapshot: there is no segment to hold the mark and
		// no older epoch to recover from, so the mark rides inside the
		// snapshot and the ack waits for the file.
		if err := h.compactLocked(seq, true); err != nil {
			// Back to epoch 0, or the next mark would be logged and
			// acked with no snapshot under its segment.
			h.ckpt.Reset()
			return nil, fmt.Sprintf("sitehost: checkpoint snapshot: %v", err)
		}
		h.remember(seq, nil, "")
		h.marksSince = 0
		return nil, ""
	}
	err := h.ckpt.Append(checkpoint.Record{Seq: seq, Method: method})
	if err == nil {
		// Also reports a compaction that failed since the last mark.
		err = h.ckpt.Flush()
	}
	if err != nil {
		h.logErr = err
		return nil, fmt.Sprintf("sitehost: checkpoint delta log failed: %v", err)
	}
	h.remember(seq, nil, "")
	h.marksSince++
	if h.marksSince >= h.ckptEvery && !h.ckpt.Compacting() {
		// The mark is durable whatever happens to the compaction: its
		// failure, now or behind the reply, fails the next mark.
		if err := h.compactLocked(0, false); err != nil {
			h.logErr = err
		} else {
			h.marksSince = 0
		}
	}
	return nil, ""
}

// compactLocked captures the current state as bytes and starts a
// compaction with it, waiting for the snapshot file if wait is set.
// mark, when non-zero, is a mark the capture must already count as
// served although the host has not remembered it yet. callMu held;
// h.engine is stable once the cluster exists.
func (h *Host) compactLocked(mark uint64, wait bool) error {
	eng, err := h.engine.Snapshot()
	if err != nil {
		return err
	}
	snap := &checkpoint.Snapshot{
		Hello:   h.helloBytes,
		LastSeq: h.lastSeq,
		Window:  make([]checkpoint.Reply, 0, len(h.order)+1),
		Engine:  eng,
	}
	// Cached replies are never written after they are cached, so the
	// compactor may read them while the host serves on.
	for _, s := range h.order {
		r := h.window[s]
		snap.Window = append(snap.Window, checkpoint.Reply{Seq: s, Data: r.data, Err: r.err})
	}
	if mark != 0 {
		snap.LastSeq = mark
		snap.Window = append(snap.Window, checkpoint.Reply{Seq: mark})
		if len(snap.Window) > replyWindowSize {
			snap.Window = snap.Window[1:]
		}
	}
	if err := h.ckpt.Compact(snap); err != nil {
		return err
	}
	if wait {
		return h.ckpt.Wait()
	}
	return nil
}

// FinalCheckpoint writes a full snapshot of the current state and waits
// for it — the SIGTERM path, so a graceful stop restarts without a log
// to replay. A no-op without a checkpoint store or before bootstrap.
func (h *Host) FinalCheckpoint() error {
	h.mu.Lock()
	cluster := h.cluster
	h.mu.Unlock()
	h.callMu.Lock()
	defer h.callMu.Unlock()
	if h.ckpt == nil || cluster == nil || h.closed {
		return nil
	}
	if err := h.compactLocked(0, true); err != nil {
		return err
	}
	h.logErr = nil
	return nil
}

// Close ends the host: it waits for a compaction in flight, flushes the
// delta log's buffered tail and closes the checkpoint store, returning
// only once the compactor has. Calls arriving afterwards are refused.
// Idempotent.
func (h *Host) Close() error {
	h.callMu.Lock()
	defer h.callMu.Unlock()
	if h.closed {
		return nil
	}
	h.closed = true
	if h.ckpt == nil {
		return nil
	}
	return h.ckpt.Close()
}

// Abandon is Close for a host that plays a killed daemon in a test or a
// recovery sweep: a compaction in flight goes no further than step and
// the delta log's buffered tail is lost, as a kill would have it (see
// seglog.Log.Abandon). Returns once the compactor has, so a
// successor may open the same directory.
func (h *Host) Abandon(step seglog.Step) {
	h.callMu.Lock()
	defer h.callMu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	if h.ckpt != nil {
		h.ckpt.Abandon(step)
	}
}
