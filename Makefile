# Developer entry points. CI runs the same commands.

GO ?= go

.PHONY: test race loc bench bench-verify storage chaos driver-chaos bench-spine profile fuzz api apicheck verify clean

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -short -race ./...

# loc prints the non-test Go lines outside bench/: the number ROADMAP
# asks every PR to report as added/removed.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 cat | wc -l

# bench regenerates the committed baseline BENCH_exact.json: every sweep
# that declares exact columns (message, byte, eqid and call counts, |∆V|
# — no timings, no allocation counts, nothing machine-dependent) runs
# once at the default scale, with its in-run assertions, and the file is
# rewritten. Unchanged protocols leave `git status` clean on any machine.
# Timing lives elsewhere: `go test -bench` here, bench/ for end to end.
bench:
	$(GO) run ./cmd/expbench -out BENCH_exact.json

# bench-verify remeasures the same sweeps in memory and fails on any
# difference from BENCH_exact.json, naming suite / row / column — a
# suite, row or column on one side only included. CI runs it, so
# wire-meter and read-path regressions are caught at PR time; an
# intentional protocol change runs `make bench` and commits the diff.
bench-verify:
	$(GO) run ./cmd/expbench -verify

# storage runs the out-of-core suite under the race detector: the
# storage-package disk/memory differential, the stored relation and
# engine oracles (including the typed tuple-store failure), the
# group-record editor's differential against the map codec, and the
# session-level eviction-churn oracle and two-file layout (tiny
# page-cache budgets; every round faults and evicts).
# -short caps the seed count; drop it locally for all 20 seeds.
storage:
	$(GO) test -race -short ./internal/storage/
	$(GO) test -race -short -run 'TestStored|TestGroupRecord|TestIDsCache|TestStorageOption' \
		./internal/relation/ ./internal/centralized/ ./internal/session/
	$(GO) test -race -run 'TestRunStorageQuick' ./internal/harness/

# chaos runs the fault-injection suite under the race detector: the
# 20-seed crash-recovery oracle (drops, duplicates, truncations,
# partitions, in-process kill-restarts) plus the driver-replay and
# checkpoint-window regressions, and the durable log both sides stand on
# (internal/seglog: crash points, incomplete chains, one compaction in
# flight). -short skips the cross-process (sited child) cases; drop it
# for the full matrix.
chaos:
	$(GO) test -race -short ./internal/chaos/ ./internal/sitehost/ ./internal/seglog/

# driver-chaos runs the driver-side crash acceptance suite under the
# race detector at full seed count: the 20-seed driver-kill resume
# oracle (abandoned sessions reopened over the journal, interleaved
# with site kills and partitions) plus the cross-process SIGKILL oracle
# (this test binary re-executed as a real journaled driver, killed
# mid-batch and restarted against live daemons). V is asserted
# bit-identical to a fresh centralized detect after every step, with
# zero replayed wire calls on clean-boundary kills.
driver-chaos:
	$(GO) test -race -timeout 20m \
		-run 'TestDriverResumeOracle|TestCrossProcessDriverKillOracle' ./internal/chaos/
	$(GO) test -race -run 'TestJournal|TestInDoubt' ./internal/session/
	$(GO) test -race ./internal/journal/ ./internal/seglog/

# bench-spine vets and tests the benchmark spine (bench/ is its own
# module, so `go test ./...` at the root never reaches it): the spine
# compiles against internal packages, and its tests hold BENCHMARK.json
# and the program together.
bench-spine:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# profile writes CPU and heap profiles of one experiment sweep, so perf
# work starts from a pprof instead of a guess. Override PROFILE_EXP to
# target a different experiment (substring match, see expbench -exp).
PROFILE_EXP ?= Exp-coalesce
profile:
	$(GO) run ./cmd/expbench -quick -exp '$(PROFILE_EXP)' -cpuprofile cpu.prof -memprofile mem.prof
	@echo "inspect with: go tool pprof cpu.prof   (allocations: go tool pprof mem.prof)"

# fuzz is the native-fuzzing smoke CI runs: grouping-key round-trip,
# injectivity and hash consistency (seeded with the \x1f collision
# corpus), the TCP framing codec against adversarial headers, and the
# call path's two decoders — the binary envelope (FuzzMsg) and the
# positional payload codec on each engine's structurally richest messages
# (FuzzPayload: horizontal batchApplyResp; vertical batchDeliverReq and
# the column-coded batchResolveReq, decoded from the same bytes) —
# against arbitrary bytes: no panic, no length trusted
# beyond the input, every accepted input re-encodes to itself. FuzzDispatch
# goes one layer up: arbitrary bytes through Cluster.Dispatch for every
# method a seeded hosted vertical site registers — an answer or an error,
# never a panic, and a site whose snapshot still restores. FuzzSnapshot
# does the same for each engine's checkpoint blob (hSiteState /
# vSiteState) and also restores a site from the bytes: an error or a site
# whose own snapshot restores again, never a panic. The two
# storage targets do the same below the CRC framing: the page codec and
# the stored engine's group-record editor (FuzzGroupRecord: arbitrary
# bytes as a record, an arbitrary member inserted and deleted).
# FuzzRecover is the durable log's: arbitrary bytes as the last segment
# and as the newest snapshot of a small valid directory — the sentinel or
# the state that was there, never a panic, never an allocation sized by a
# damaged length field.
fuzz:
	$(GO) test -fuzz=FuzzAppendKey -fuzztime=10s -run '^$$' ./internal/relation
	$(GO) test -fuzz=FuzzFrame -fuzztime=10s -run '^$$' ./internal/netwire
	$(GO) test -fuzz=FuzzMsg -fuzztime=10s -run '^$$' ./internal/netwire
	$(GO) test -fuzz=FuzzPayload -fuzztime=10s -run '^$$' ./internal/horizontal
	$(GO) test -fuzz=FuzzPayload -fuzztime=10s -run '^$$' ./internal/vertical
	$(GO) test -fuzz=FuzzDispatch -fuzztime=10s -run '^$$' ./internal/vertical
	$(GO) test -fuzz=FuzzSnapshot -fuzztime=10s -run '^$$' ./internal/horizontal
	$(GO) test -fuzz=FuzzSnapshot -fuzztime=10s -run '^$$' ./internal/vertical
	$(GO) test -fuzz=FuzzStorePage -fuzztime=10s -run '^$$' ./internal/storage
	$(GO) test -fuzz=FuzzRecover -fuzztime=10s -run '^$$' ./internal/seglog
	$(GO) test -fuzz=FuzzGroupRecord -fuzztime=10s -run '^$$' ./internal/centralized

# api regenerates the committed API-surface lockfile; apicheck fails when
# the public repro surface (go doc -all) drifts from it, so façade changes
# are always an explicit, reviewed diff. CI runs apicheck.
api:
	$(GO) doc -all . > api/repro.txt

apicheck:
	@$(GO) doc -all . > /tmp/repro-api-check.txt
	@diff -u api/repro.txt /tmp/repro-api-check.txt \
		|| (echo "API surface drifted from api/repro.txt — review and run 'make api'"; exit 1)
	@echo "API surface matches api/repro.txt"

# clean removes compiled test binaries and profiles (e.g. a stray
# repro.test from `go test -c`) so the working tree stays tidy.
clean:
	rm -f *.test *.out *.prof
	find . -name '*.test' -type f -delete

verify: test race apicheck clean
