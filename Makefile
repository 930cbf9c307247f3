# RepChain build and verification targets. Pure Go, stdlib only.

GO ?= go
BENCHTIME ?= 1s

.PHONY: all ci build test test-short race vet fmt-check lint tools-test vuln bench benchmark-smoke crash-consistency fuzz-smoke soak loc experiments examples demo apidiff clean

all: build vet test race lint

# Mirrors .github/workflows/ci.yml so contributors can reproduce a CI
# failure locally before pushing.
ci: build vet fmt-check test race lint tools-test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file is not gofmt-clean (prints the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Determinism-and-concurrency lint gate (DESIGN.md §4e, §4j): the
# custom go/analysis-style passes in tools/ — lockguard, errwrapcheck,
# plus the interprocedural dettaint (the one determinism pass: clocks,
# unseeded rand, map/select order, in every package), goroleak, and
# atomicmix — must report zero unsuppressed findings. (The §4c metric
# catalogue is checked by TestMetricNamesDocumented in go test.)
# -timing prints per-analyzer wall time and -deadline fails the run if
# the suite exceeds the budget, keeping the gate honest about its own
# cost. The linter lives in its own module
# (tools/go.mod), hence the cd.
lint:
	cd tools && $(GO) run ./cmd/repchain-lint -C .. -timing -deadline 120s ./...

# Machine-readable lint report (suppressed findings included) for CI
# artifact upload and offline triage.
lint-json:
	cd tools && $(GO) run ./cmd/repchain-lint -C .. -json ./... > ../lint-report.json || true
	@echo "wrote lint-report.json"

# The analyzers' own analysistest suites (failing + suppressed fixture
# per rule).
tools-test:
	cd tools && $(GO) test ./...

# Known-vulnerability scan over the main module. Installed on demand
# and skipped with a notice when absent, mirroring the CI govulncheck
# job, so offline checkouts stay green.
vuln:
	@if ! command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	else \
		govulncheck ./...; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass over the full tree — the parallel round pipeline
# and the shared verification cache must stay clean under -race.
race:
	$(GO) test -race ./...

# Every Go benchmark, for profiling; none is gated. Wall-clock claims
# are benchmark/run.sh's (BENCHMARK.json) and allocation budgets are
# ordinary tests. CI runs BENCHTIME=1x so no benchmark can rot.
bench:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -benchmem ./...

# The benchmark harness (BENCHMARK.json, benchmark/) is its own module,
# so `go build ./...` and `go test ./...` never compile it: this is the
# step that notices a change breaking the transport/node/facade entry
# points it calls. Mirrors the CI benchmark-smoke job.
benchmark-smoke:
	$(GO) vet -C benchmark .
	$(GO) test -C benchmark .

# Crash-consistency matrix (DESIGN.md §4g): torn-tail truncation,
# torn segment creation, mid-segment corruption, kill-during-snapshot,
# forged snapshots, and a file at the chain path, plus the governor's
# checkpoint round trip and the engine-level restart-from-snapshot
# paths. Mirrors the CI crash-consistency job.
crash-consistency:
	$(GO) test -count=1 ./internal/ledger \
		-run 'Torn|Truncated|Corrupt|KillDuring|Snapshot|RegularFile|Prune'
	$(GO) test -count=1 ./internal/node -run 'Checkpoint|Restore|Replica'
	$(GO) test -count=1 ./internal/core -run 'Snapshot|Restart|Persist'
	$(GO) test -count=1 ./internal/transport -run 'Persistence|StakeTransfer'

# Short coverage-guided fuzz pass over the untrusted decoders: ledger
# segments and snapshots, the deployment file and the roster built from
# it, the transport's frame receive path, the provider frame (a list of
# signed transactions and their provider batches), the collector upload
# batch, the round-ticket envelope, block frames and a provider's
# own-records decode of them (which must accept exactly what the full
# decode does), the governor-to-governor stake-transform messages, the governor checkpoint
# state and the reputation table inside it, the provider's argue
# message, and the cross-shard lock/receipt payloads behind the
# validator wrapper; batch signature verification, whose every verdict
# must equal the single-signature rule's with and without key tables;
# and the comb multiply, which must equal Go's double-scalar multiply.
# `go test -fuzz` accepts one target per invocation, hence the loop.
# FUZZTIME=30s in CI; keep it short locally.
FUZZTIME ?= 10s
fuzz-smoke:
	@for target in ledger/FuzzSegmentOpen ledger/FuzzSnapshotLoad transport/FuzzDeploymentRoster transport/FuzzFrameReceive tx/FuzzUploadBatchDecode tx/FuzzProviderBatchDecode \
		consensus/FuzzRoundTicketsDecode ledger/FuzzBlockDecode ledger/FuzzOwnRecordsDecode consensus/FuzzStakeTransformDecode \
		node/FuzzGovernorStateDecode reputation/FuzzReputationRestore node/FuzzArgueDecode \
		shard/FuzzXShardValidate crypto/FuzzVerifyBatch crypto/internal/edwards25519/FuzzCombMult; do \
		$(GO) test ./internal/$${target%/*} -run '^$$' -fuzz "^$${target##*/}$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# Long-running segmented-store soak (nightly CI): many rounds against
# a small segment size with pruning on, asserting bounded heap growth
# and a bounded live segment count. SOAK_ROUNDS=100000 in the nightly
# workflow; the default keeps local runs quick.
# SOAK_OUT is resolved to an absolute path because the test runs with
# the package directory as its working directory.
SOAK_ROUNDS ?= 2000
SOAK_OUT ?= $(CURDIR)/SOAK_metrics.json
soak:
	REPCHAIN_SOAK_ROUNDS=$(SOAK_ROUNDS) REPCHAIN_SOAK_OUT=$(SOAK_OUT) \
		$(GO) test -count=1 -v ./internal/ledger -run TestSoakSegmentedStore

# ROADMAP aim 2's number: non-test Go lines outside benchmark/ and
# tools/, recorded per PR as go_loc_nontest in BENCH_history.jsonl. The
# copy of Go's edwards25519 (its README says what was copied) is counted
# on a second line; its first-party files, multiscalar.go and comb.go,
# stay in the first.
VENDORED := ./internal/crypto/internal/edwards25519
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './tools/*' -not -path './.*' \
		\( -not -path '$(VENDORED)/*' -o -name multiscalar.go -o -name comb.go \) | xargs wc -l | tail -n 1
	@find $(VENDORED) -name '*.go' -not -name '*_test.go' -not -name multiscalar.go -not -name comb.go \
		| xargs wc -l | tail -n 1 | sed 's/total/vendored (Go edwards25519)/'

# Regenerate every evaluation table (EXPERIMENTS.md source).
experiments:
	$(GO) run ./cmd/repchain-sim tables -seed 42

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/carsharing
	$(GO) run ./examples/insurance
	$(GO) run ./examples/adversary

# Diff package repchain's exported API against a baseline commit
# (default: previous commit) and report incompatible changes, mirroring
# the CI apidiff job. apidiff.allow lists, one exact report line each,
# the deliberate removals subtracted from the report; anything else
# fails. Requires golang.org/x/exp/cmd/apidiff on PATH; skips with a
# notice when absent so offline checkouts stay green.
APIDIFF_BASE ?= HEAD^
apidiff:
	@if ! command -v apidiff >/dev/null 2>&1; then \
		echo "apidiff not installed; skipping (go install golang.org/x/exp/cmd/apidiff@latest)"; \
	else \
		tmp="$$(mktemp -d)"; \
		git worktree add --quiet "$$tmp/base" $(APIDIFF_BASE); \
		(cd "$$tmp/base" && apidiff -w "$$tmp/repchain.base" repchain); \
		apidiff -incompatible "$$tmp/repchain.base" repchain | grep -vxFf apidiff.allow | tee "$$tmp/report.txt"; \
		status=0; [ -s "$$tmp/report.txt" ] && status=1; \
		git worktree remove --force "$$tmp/base"; \
		rm -rf "$$tmp"; \
		exit $$status; \
	fi

# Full alliance over loopback TCP.
demo:
	$(GO) run ./cmd/repchain-node -demo -rounds 6

clean:
	$(GO) clean ./...
