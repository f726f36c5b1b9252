# Targets mirror .github/workflows/ci.yml so local runs and CI are
# identical.

GO ?= go

.PHONY: all build vet fmt fmt-check test race fuzz bench bench-smoke bench-planmiss bench-membership benchmark-smoke chaos crashtest profile serve

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
	$(GO) test -race -count=1 -run 'CrashRecovery' .

# Crash-safety suite: WAL scan/replay/truncation contracts, checkpoint
# round trips, kill-and-recover differentials (recovered state
# byte-identical to the acknowledged prefix, warm starts serving plan
# hits with zero solver work) — including under injected disk faults —
# and the wire-level durable-tenant lifecycle.
crashtest:
	$(GO) test -race -count=1 -run 'WAL|Checkpoint|Durable|Replay' ./internal/store/
	$(GO) test -race -count=1 -run 'Durability|WarmStart|CrashRecovery' .
	$(GO) test -race -count=1 -run 'Durable' ./internal/server/

# Short-budget native fuzzing of the query parser, the wire codec, the
# WAL decoder, the frame decoder and the member commit check (against
# CheckAll), as in CI. Finds are written to testdata/fuzz — commit them.
fuzz:
	$(GO) test -fuzz=FuzzParseQuery -fuzztime=20s -run='^$$' ./internal/view/
	$(GO) test -fuzz=FuzzCodecRoundTrip -fuzztime=20s -run='^$$' ./internal/server/
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=20s -run='^$$' ./internal/store/
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=20s -run='^$$' ./internal/wire/
	$(GO) test -fuzz=FuzzCommitDifferential -fuzztime=20s -run='^$$' ./internal/store/

# Every Go benchmark (slow). For measuring while you work: a
# performance claim cites the repo benchmark (BENCHMARK.json,
# `go run -C benchmark .`).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# One-iteration smoke of the full-pipeline, serving, plan-miss and
# membership benchmarks, as in CI.
bench-smoke:
	$(GO) test -bench=E11 -benchtime=1x -run='^$$' .
	$(GO) test -bench=Serve -benchtime=1x -run='^$$' .
	$(GO) test -bench=PlanMiss -benchtime=1x -run='^$$' ./internal/view/
	$(GO) test -bench=FederationMembership -benchtime=1x -run='^$$' .

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
