GO ?= go
COVER_FLOOR ?= 70

.PHONY: all build vet test race bench bench-smoke bench-json bench-compare pgo fuzz ci cover family-diff shard-diff resolve-diff plan-diff perfbench-selftest serve loadtest churn-replay slo-replay

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# family-diff is the problem-family differential suite under the race
# detector: bags solves stay bit-identical to the pre-seam pipeline
# across the fixture corpus and every oracle backend, identical matches
# bags on singleton-bag instances, related matches the brute-force
# oracle, and the shared memo never serves one family's entries to
# another. The full race/cover legs already include these tests; this
# target is the named gate CI (and bisects) can run in isolation.
family-diff:
	$(GO) test -race -run '^TestFamily' . ./internal/pipeline ./internal/server

# workers-diff is the parallel-oracle differential suite under the race
# detector: every committed fixture, every oracle backend, every
# problem family, at oracle worker counts 1/2/4/8, must produce
# bit-identical makespans, schedules and decision statistics (plus the
# intra-backend determinism tests of internal/milp and internal/oracle).
# The full race leg already includes these tests; this named gate lets
# CI and bisects point a speculation regression at itself.
workers-diff:
	$(GO) test -race -run 'TestOracleWorkers|TestCfgDPWorkers|TestBnBWorkers|TestParallel' . ./internal/oracle ./internal/milp

# shard-diff is the sharded-serving differential suite under the race
# detector: the consistent-hash router must be answer-invisible against
# a single replica under concurrent clients, and a memo snapshot
# export/import round trip must reproduce every fixture × backend ×
# family solve bit for bit with zero pipeline runs — plus the full
# shard, wire, memo and pipeline-codec package suites. The full race
# leg already includes these tests; this named gate lets CI and bisects
# attribute a serving-layer regression directly.
shard-diff:
	$(GO) test -race -run 'TestShardRouterDifferential|TestSnapshot' .
	$(GO) test -race ./internal/shard ./internal/wire ./internal/memo ./internal/pipeline

# resolve-diff is the incremental re-solve differential suite under the
# race detector: every committed churn trace replayed across every
# oracle backend × family × worker count must produce answers
# bit-identical to from-scratch solves of each post-delta instance while
# running strictly fewer pipeline executions over the trace, and the
# placement-repair fast path must either certify its schedule against
# the post-delta lower bound or fall back bit-identically — plus the
# delta/resolve/repair unit suites in core, placer, sched and workload
# and the /v1/resolve endpoint tests. The full race leg already includes
# these tests; this named gate lets CI and bisects attribute a
# warm-start regression directly.
resolve-diff:
	$(GO) test -race -run 'TestResolve|TestDelta|TestRepair|TestGenerateChurn|TestTrace' \
		. ./internal/core ./internal/placer ./internal/sched ./internal/workload ./internal/server

# plan-diff is the adaptive-solving differential suite under the race
# detector: with the planner attached but adaptive mode off, every
# fixture × backend × family solve must stay bit-identical to a plain
# solve (the cost model is observe-only), and with a trained model a
# tight deadline must land on exactly the heuristic rung the ladder
# promises, bound included — plus the internal/plan determinism and
# monotonicity table tests and the server's adaptive endpoint tests.
# The full race leg already includes these tests; this named gate lets
# CI and bisects attribute an adaptive-path regression directly.
plan-diff:
	$(GO) test -race -run 'TestPlan|TestSpec|TestAdaptive' . ./internal/core ./internal/server
	$(GO) test -race ./internal/plan

# perfbench-selftest builds the repository benchmark (perfbench/, a
# separate module that `go test ./...` never compiles) and runs its
# self-test. perfbench calls internal stage entry points such as
# pattern.Enumerate and classify.Classify directly, so this is the gate
# that notices when an internal API change breaks the benchmark.
perfbench-selftest:
	bash perfbench/run.sh --selftest

# bench runs every benchmark in the repository, including the internal
# package benchmarks (pattern, placer, pipeline, milp, numeric).
bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# bench-smoke runs every benchmark exactly once so CI notices when a
# benchmark rots (fails to compile or crashes) without paying for real
# measurements.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# bench-json snapshots the EPTAS hot-path benchmarks to BENCH_<date>.json,
# extending the performance trajectory. See cmd/benchjson.
bench-json:
	$(GO) run ./cmd/benchjson

# bench-compare runs the tracked hot-path benchmarks fresh and diffs them
# against the latest committed BENCH_*.json snapshot, failing on a >25%
# ns/op regression. CI runs it as a non-blocking report step (benchmark
# noise on shared runners must not fail the build).
bench-compare:
	$(GO) run ./cmd/benchjson -compare -benchtime 3x

# pgo regenerates the committed profile-guided-optimization profile,
# default.pgo, from a CPU profile of the hot-path benchmark suite (the
# same families benchjson snapshots). cmd/benchjson builds with the
# committed profile whenever it is present — go's -pgo=auto only applies
# default.pgo to main packages, so the tool passes the flag explicitly —
# which keeps snapshots, bench-compare in CI and production builds
# measuring the same optimized binary. Rerun after large hot-path
# refactors; the profile is data, not code, so a stale one degrades
# gracefully to smaller wins.
pgo:
	$(GO) test -run '^$$' -bench 'Benchmark(Ex[A-Z]|Oracle|Family|Codec|Resolve|Planner)' \
		-cpuprofile pgo.cpu.out .
	mv pgo.cpu.out default.pgo
	rm -f repro.test bagsched.test

# fuzz runs the native fuzz target for a short burst.
fuzz:
	$(GO) test -fuzz FuzzSolveEPTAS -fuzztime 30s .

# cover is the CI coverage leg: the race-mode test run with an atomic
# coverage profile, failing when total statement coverage drops below
# COVER_FLOOR percent. The profile lands in coverage.out (uploaded as a
# CI artifact).
cover:
	$(GO) test -race -covermode=atomic -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -1
	@$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { sub(/%/, "", $$3); if ($$3 + 0 < floor) { \
			printf "coverage %.1f%% is below the %d%% floor\n", $$3, floor; exit 1 } }'

# serve runs the long-running solve service on :8080; pair with
# `make loadtest` in another terminal. See the README's Serving section.
serve:
	$(GO) run ./cmd/bagsched serve -addr :8080

# loadtest replays the testdata corpus against a running `make serve`
# and reports the cold-vs-warm p50 from GET /v1/stats, failing unless
# the warm pass is at least 2x faster.
loadtest:
	$(GO) run ./examples/service -addr http://127.0.0.1:8080 -dir testdata

# churn-replay replays the committed churn traces against a running
# `make serve` through POST /v1/resolve, checks every incremental answer
# bit for bit against a cache-bypassed from-scratch solve, and fails
# unless incremental p50 beats from-scratch p50 by at least 5x on the
# low-churn trace. See the README's Incremental re-solve section.
churn-replay:
	$(GO) run ./examples/service -addr http://127.0.0.1:8080 -churn testdata

# slo-replay runs the SLO replay demo fully in process (it spins up its
# own server, unlike loadtest/churn-replay which need `make serve`):
# calibrate the latency cost model on the corpus, replay a Zipf trace of
# tight/medium/loose deadlines adaptively and at fixed eps, and fail
# unless the adaptive pass hits >= 95% of deadlines and beats the
# baseline. See the README's Adaptive solving section.
slo-replay:
	$(GO) run ./examples/service -slo -dir testdata -eps 0.25 -requests 120 -max-jobs 64

# ci is what .github/workflows/ci.yml runs (plus a non-blocking
# bench-compare step); the coverage matrix leg swaps race for cover.
ci: vet build race family-diff workers-diff shard-diff resolve-diff plan-diff bench-smoke
