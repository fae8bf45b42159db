# Tier-1 verification is `make` (or `make ci`): build, vet, test, plus a
# single-iteration smoke pass over the perf-critical micro-benchmarks.
GO ?= go
FUZZTIME ?= 20s

.PHONY: all ci build vet test race crash bench bench-short bench-build bench-json fuzz lint lint-metrics clean

all: ci

ci: build vet test crash bench-short bench-build lint lint-metrics

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrency surface: the service package,
# the sharded engine's cooperative fan-out (differential tests), the
# graph-pattern subsystem (parallel differential harness over shared
# selectivity caches), the live-update overlay (snapshot swap vs
# concurrent readers/writers), the standing-subscription registry, and
# the root-package stress tests (including the subscription
# close-under-update stress and the standing differential harness),
# plus the wavelet descent kernels the noalloc annotations cover.
race:
	$(GO) test -race ./internal/service/ ./internal/core/ ./internal/ltj/ ./internal/query/ ./internal/overlay/ ./internal/standing/ ./internal/wal/ ./internal/wavelet/ .
	$(GO) test -race -run 'Stress|Clone|Sharded|Update|Subscribe|Standing|Group|Compiled|Durable|Panic|WAL' .

# Crash-recovery property pass: the fault-injection harness kills the
# process (write-budget exhaustion + random crash-point tears of every
# unsynced tail) at 100+ points across the update/compaction workload
# and verifies zero acked-update loss and oracle equality, plus the
# torn-tail, compaction-stage and kill+reboot end-to-end tests.
crash:
	$(GO) test -count=1 -run 'Durable|WAL' ./internal/wal/ .

# Short bounded fuzz runs over the expression parser, the graph-pattern
# parser and the database loader (go native fuzzing; one target per
# invocation). The growing corpus lives in the Go build cache, so
# repeated runs keep digging.
fuzz:
	$(GO) test -run NONE -fuzz FuzzParseExpr -fuzztime $(FUZZTIME) ./internal/pathexpr
	$(GO) test -run NONE -fuzz FuzzParseQuery -fuzztime $(FUZZTIME) ./internal/query
	$(GO) test -run NONE -fuzz FuzzDecodeNDJSONUpdates -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run NONE -fuzz FuzzDecodeSubscribeRequest -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run NONE -fuzz FuzzLoadDB -fuzztime $(FUZZTIME) .
	$(GO) test -run NONE -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/wal

# Service throughput scaling and cache-hit benchmarks.
bench:
	$(GO) test -run NONE -bench 'Service' -benchtime 2s .

# One-iteration smoke run of the hot-path micro-benchmarks (broadword
# select, bitvector and wavelet rank, multi-range wavelet descent, the
# level-synchronous BFS): makes sure the benchmark code keeps compiling
# and running under ci.
bench-short:
	$(GO) test -run NONE -bench 'SelectInWord|TraverseMany|BatchedBFS|Rank' -benchtime 1x \
		./internal/bitvec/ ./internal/wavelet/ ./internal/core/
	$(GO) test -run NONE -bench CompiledStepperSteadyState -benchtime 100x ./internal/core/

# The benchmark (perfbench/, run by BENCHMARK.json) is its own Go module,
# so `go build ./...` never compiles it; vet it here so that a change to
# an API it uses fails ci instead of the next benchmark run. GOPROXY=off
# keeps the module resolution offline.
bench-build:
	cd perfbench && GOFLAGS=-mod=mod GOPROXY=off $(GO) vet ./...

# Machine-readable perf trajectory: the graph-pattern workload —
# BGP-only vs mixed BGP+RPQ — on the selectivity-planned executor
# (BENCH_PR4.json), the live-update workload — read latency vs overlay
# fill, interleaved read/write, and the compaction swap pause
# (BENCH_PR5.json), the standing-subscription workload — incremental
# delta maintenance vs full re-evaluation over the same update stream
# (BENCH_PR6.json), and the service pool with and without cross-query
# traversal grouping (BENCH_GROUPING.json). BENCH_PR3.json, the retired
# batched-vs-unbatched ablation, and BENCH_PR7.json, the retired
# compiled-vs-fallback ablation beside the grouping comparison, stay as
# history.
bench-json:
	$(GO) run ./cmd/rpqbench -nodes 8000 -edges 40000 -preds 40 -queries 120 \
		-limit 10000 -patterns BENCH_PR4.json
	$(GO) run ./cmd/rpqbench -nodes 10000 -edges 50000 -preds 40 -queries 400 \
		-timeout 5s -limit 100000 -updates BENCH_PR5.json
	$(GO) run ./cmd/rpqbench -nodes 4000 -edges 20000 -preds 30 -queries 200 \
		-timeout 5s -limit 100000 -subs BENCH_PR6.json
	$(GO) run ./cmd/rpqbench -grouping BENCH_GROUPING.json

# Repo-invariant static analysis (internal/lint + cmd/rpqlint):
# ctxfirst, spanend, deadlineloop, locksend, walerr and noalloc over
# the whole tree. Zero dependencies; fails on any unsuppressed
# violation. See README "Static analysis" for the suppression syntax.
lint:
	$(GO) run ./cmd/rpqlint ./...

# Metrics/stats coverage lint: every field of the service Stats
# snapshot (including the standing/WAL/latency blocks) must have a
# /metrics series and render in Stats.String(). The reflection-based
# tests fail when a counter is added without its exposition.
lint-metrics:
	$(GO) test -count=1 -run 'TestMetricsCoverage|TestStatsStringCoversAllFields' ./internal/service/

clean:
	$(GO) clean ./...
