# Targets mirror .github/workflows/ci.yml so local runs and CI are
# identical.

GO ?= go

.PHONY: all build vet fmt fmt-check test examples race fuzz bench bench-smoke bench-planmiss bench-membership benchmark-smoke pairs loc chaos crashtest profile serve

all: build vet fmt-check test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Includes what CI also runs as steps of their own: the reproduction
# (`go run ./cmd/interopbench` prints what ./internal/experiments
# asserts) and the daemon smoke (-run DaemonSmoke ./cmd/interopd).
test:
	$(GO) test -shuffle=on ./...

# Run the four examples, as in CI: each exits non-zero when the
# behaviour it demonstrates is missing.
examples:
	for ex in quickstart library federation repair; do \
		$(GO) run ./examples/$$ex > /dev/null || exit 1; \
	done

# Race-test the concurrent pipeline paths (worker-pool derivation and
# conformation, shared entailment cache, query engine, both transports'
# request paths against membership changes).
race:
	$(GO) test -race ./internal/core/... ./internal/logic/... ./internal/view/... ./internal/wire/... ./internal/server/...
	$(GO) test -race -run Federation .

# Fixed-seed fault-injection suite under the race detector: the chaos
# wrapper's own contract, the engine differentials (post-reconcile state
# byte-identical to a fault-free run) and the wire-level degraded-serving
# tests.
chaos:
	$(GO) test -race -count=1 ./internal/store/chaos/
	$(GO) test -race -count=1 -run 'Chaos|Breaker|PartialCommit|LateRejection|FailAfterCommit' ./internal/view/
	$(GO) test -race -count=1 -run 'Health|Wire|BackgroundReconciler' ./internal/server/
	$(GO) test -race -count=1 -run 'CrashRecovery|CrashAtEveryAppend|CrashAtEverySync|OneFsyncPerBatch|WALGolden' .

# Crash-safety suite: WAL scan/replay/truncation contracts, checkpoint
# round trips, kill-and-recover differentials (recovered state
# byte-identical to the acknowledged prefix, warm starts serving plan
# hits with zero solver work) — including under injected disk faults —
# and the wire-level durable-tenant lifecycle.
crashtest:
	$(GO) test -race -count=1 -run 'WAL|Checkpoint|Durable|Replay' ./internal/store/
	$(GO) test -race -count=1 -run 'Durability|WarmStart|CrashRecovery|CrashAtEveryAppend|CrashAtEverySync|OneFsyncPerBatch|WALGolden' .
	$(GO) test -race -count=1 -run 'Durable' ./internal/server/

# Short-budget native fuzzing of the query parser, the HTTP codec, the
# WAL and checkpoint decoders, the binary value codec, the frame
# decoder, the member commit check (against CheckAll), the key-holder
# index (against a fresh count), the inherited extent indexes (against
# fresh builds), the column kernels (against the reference scan), the
# conformed rule conditions (against their source text) and the fusion
# plans (against per-object fusion: same values, same rng draws), as in
# CI.
# Finds are written to testdata/fuzz — commit them.
fuzz:
	$(GO) test -fuzz=FuzzParseQuery -fuzztime=20s -run='^$$' ./internal/view/
	$(GO) test -fuzz=FuzzCodecRoundTrip -fuzztime=20s -run='^$$' ./internal/server/
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=20s -run='^$$' ./internal/store/
	$(GO) test -fuzz=FuzzCheckpointDecode -fuzztime=20s -run='^$$' ./internal/store/
	$(GO) test -fuzz=FuzzValueDecode -fuzztime=20s -run='^$$' ./internal/object/
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=20s -run='^$$' ./internal/wire/
	$(GO) test -fuzz=FuzzCommitDifferential -fuzztime=20s -run='^$$' ./internal/store/
	$(GO) test -fuzz=FuzzKeyIndex -fuzztime=20s -run='^$$' ./internal/view/
	$(GO) test -fuzz=FuzzInheritedIndex -fuzztime=20s -run='^$$' ./internal/view/
	$(GO) test -fuzz=FuzzColumnResidual -fuzztime=20s -run='^$$' ./internal/view/
	$(GO) test -fuzz=FuzzRuleConformance -fuzztime=20s -run='^$$' ./internal/core/
	$(GO) test -fuzz=FuzzFusePlan -fuzztime=20s -run='^$$' ./internal/core/

# Every Go benchmark (slow). For measuring while you work: a
# performance claim cites the repo benchmark (BENCHMARK.json,
# `go run -C benchmark .`).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# One-iteration smoke of the full-pipeline, serving, plan-miss,
# membership, batch-validation, returned-rows, residual-scan,
# column-residual and detach-clone benchmarks, as in CI.
bench-smoke:
	$(GO) test -bench=E11 -benchtime=1x -run='^$$' .
	$(GO) test -bench=Serve -benchtime=1x -run='^$$' .
	$(GO) test -bench=PlanMiss -benchtime=1x -run='^$$' ./internal/view/
	$(GO) test -bench=FederationMembership -benchtime=1x -run='^$$' .
	$(GO) test -bench=ValidateBatch -benchtime=1x -run='^$$' ./internal/view/
	$(GO) test -bench=RunReturnsRows -benchtime=1x -benchmem -run='^$$' ./internal/view/
	$(GO) test -bench=ResidualScan -benchtime=1x -benchmem -run='^$$' ./internal/view/
	$(GO) test -bench=ColumnResidual -benchtime=1x -benchmem -run='^$$' ./internal/view/
	$(GO) test -bench=DetachAll -benchtime=1x -run='^$$' ./internal/core/

# The planner's plan-miss cost (µs and B per plan build, every op a
# miss) on a 4 000-row Figure 1 extent: point + broad range, two-sided
# range, in + range. TestPlanMissAllocBound guards the bytes in `test`.
bench-planmiss:
	$(GO) test -bench=PlanMiss -benchmem -run='^$$' ./internal/view/

# One membership change at Scale 1000 (ns, B and allocations per op):
# the whole cycle — founding pair, incremental attach, Report, detach,
# Report — and its stages Conform, Merge, AttachPair and DetachMember on
# the same inputs. TestMembershipCycleAllocBound and
# TestMembershipChangeScalesLinearly (./internal/core) guard the
# allocations and the linear scaling in `test`.
bench-membership:
	$(GO) test -bench=FederationMembership -benchmem -run='^$$' .

# Vet and test the benchmark harness, a module of its own that the
# root module's build and test never compile, as in CI.
benchmark-smoke:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# Alternating before/after pairs of one benchmark workload: the
# benchmark built at REV against the working tree, each run's four
# end-to-end metrics, both sides' medians and quartiles, and the
# working tree's wins per metric. Run before claiming a speed-up:
#   make pairs REV=HEAD WORKLOAD=scan-read N=10 SEED=1
REV ?= HEAD
WORKLOAD ?= scan-read
N ?= 10
SEED ?= 1
pairs:
	scripts/pairs.sh $(REV) $(WORKLOAD) $(N) $(SEED)

# Non-test and test Go line counts, benchmark/ excluded: the two counts
# the ROADMAP's "least code" aim tracks. Informational, as in CI.
loc:
	scripts/loc.sh

# Serve the federation: figure1 + personnel tenants, HTTP on :7070 and
# the binary framed transport on :7071, with /metrics and pprof.
# Ctrl-C drains gracefully.
serve:
	$(GO) run ./cmd/interopd -addr :7070 -wire-addr :7071

# CPU/heap profiles of one membership change at Scale 1000, so perf
# work starts from a flame graph instead of a guess:
#   make profile
#   go tool pprof -http=:8080 cpu.pprof
profile:
	$(GO) test -bench=FederationMembership -benchtime=20x -run='^$$' -cpuprofile cpu.pprof -memprofile mem.pprof .
