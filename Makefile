GO ?= go

## bench: pinned parameters so runs are comparable across commits. Override
## on the command line only for exploratory runs; committed BENCH_*.json
## files must come from the defaults.
BENCH_PKGS  := . ./internal/core ./internal/stream ./internal/pubsub ./internal/kvstore
BENCH_TIME  ?= 300ms
BENCH_COUNT ?= 1

.PHONY: ci vet build test race flake fuzz bench bench-smoke alloc-smoke profile lint metrics-smoke obs-smoke chaos overload e2e

## ci: the full gate — vet, build, the test suite under the race detector,
## the stratalint analyzers (see DESIGN.md, "Static contracts") with zero
## tolerated findings, one -benchtime=1x pass over
## the data-plane benchmarks so the batched fast paths run under -race too,
## the kill-and-recover chaos suite, the overload degradation suite
## (DESIGN.md §11), the cross-process observability smoke (DESIGN.md §12),
## the multi-process chaos scenarios (DESIGN.md §14), ten repeats of the
## durable-log, stream and core packages so a one-in-ten flake fails here,
## not on main, and ten seconds of fuzzing per fuzz target.
ci: vet build race flake fuzz lint bench-smoke alloc-smoke chaos overload obs-smoke e2e

## selected: prefix for a `go test -run <pattern>` or `-fuzz <pattern>`
## target. `go test` exits 0 when the pattern selects nothing ("no tests to
## run", "no fuzz tests to fuzz"), so a renamed test would silently leave
## CI; this fails the target if that happens in any of the listed packages.
selected = bash -o pipefail -c '"$$0" "$$@" 2>&1 | awk "{print} /no tests to run|no fuzz tests to fuzz/ {none=1} END {exit none}"'

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: the suite under the race detector, with test order shuffled so
## accidental inter-test ordering dependencies surface instead of hiding.
race:
	$(GO) test -race -shuffle=on ./...

## flake: the durable log and the two layers on it (the group-commit and
## crash-recovery tests are the concurrent ones), the stream engine, the
## framework on top and the clustering property tests (each run draws fresh
## random inputs), ten times under -race; plus 200 repeats of a stream
## trace test that used to fail about once in 100 runs, when a sampled
## tuple's span was recorded after its output chunk could reach the sink;
## plus 50 repeats of TestConnectorSourceContract, which subscribes and
## unsubscribes against context cancellation on all four connector
## transports (in-process broker, TCP broker, local log, remote log); plus
## 50 repeats of the reconnect tests, which race a ReconnectConn's attach
## and restore against unsubscribes, link swaps and failed restores; plus 50
## repeats of the tests that compare parallel pipelines with sequential or
## unchained ones, since a parallel stage's branches run concurrently once a
## layer's specimens are reshuffled across them.
flake:
	$(GO) test -race -count=10 ./internal/seglog ./internal/kvstore ./internal/pubsub ./internal/stream ./internal/core ./internal/cluster
	$(selected) $(GO) test -race -count=200 -run '^TestTraceAndWatermarkThroughChunkedEdges$$' ./internal/stream
	$(selected) $(GO) test -race -count=50 -run '^TestConnectorSourceContract$$' ./internal/core
	$(selected) $(GO) test -race -count=50 -run '^(TestReconnect|TestRestoreFailure|TestActiveSubscriptions)' ./internal/pubsub
	$(selected) $(GO) test -race -count=50 -run '^(TestParallelStagesSpreadSpecimens|TestStageChainDifferential|TestPipelineParallelismMatchesSequential)$$' ./internal/core ./internal/bench

## fuzz: each fuzz target for 10 s with two workers, past the seed corpus
## the test suite runs. Minimising a new interesting input is capped at 100
## runs, so the 10 s go to fuzzing (uncapped, one minimisation can take a
## target's whole budget). A failing input is written under the package's
## testdata/fuzz/ for the suite to replay; commit it with the fix.
fuzz_run = $(selected) $(GO) test -run '^$$' -fuzztime 10s -fuzzminimizetime 100x -parallel 2 -fuzz

fuzz:
	$(fuzz_run) '^FuzzOpenSSTable$$' ./internal/kvstore
	$(fuzz_run) '^FuzzDecodeWALRecord$$' ./internal/kvstore
	$(fuzz_run) '^FuzzRecover$$' ./internal/seglog
	$(fuzz_run) '^FuzzClientConn$$' ./internal/pubsub
	$(fuzz_run) '^FuzzServeConn$$' ./internal/pubsub
	$(fuzz_run) '^FuzzRemoteLogDecode$$' ./internal/pubsub
	$(fuzz_run) '^FuzzParseTraceparent$$' ./internal/telemetry
	$(fuzz_run) '^FuzzUnmarshal$$' ./internal/otimage
	$(fuzz_run) '^FuzzAggregateRestore$$' ./internal/stream
	$(fuzz_run) '^FuzzJoinRestore$$' ./internal/stream
	$(fuzz_run) '^FuzzDecodeTuple$$' ./internal/core
	$(fuzz_run) '^FuzzLoadCheckpoint$$' ./internal/core
	$(fuzz_run) '^FuzzCorrelateRestore$$' ./internal/core
	$(fuzz_run) '^FuzzDecodeCommand$$' ./internal/core

## lint: the whole module (./... includes internal/lint itself — the
## analyzers run on their own implementation). Any unsuppressed finding
## fails, and so does a //lint:ignore naming an analyzer that no longer
## exists.
lint:
	$(GO) build -o bin/strata-lint ./cmd/strata-lint
	./bin/strata-lint ./...

## bench: the tier-1 benchmark set (figure benches at the root plus the
## stream/pubsub/kvstore data plane), recorded as BENCH_PR9.json for
## before/after evidence in perf PRs.
bench:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -run='^$$' -bench=. -benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) $(BENCH_PKGS) | tee bench.out
	./bin/benchjson < bench.out > BENCH_PR9.json
	@rm -f bench.out
	@echo "wrote BENCH_PR9.json"

## bench-smoke: run every data-plane benchmark exactly once under -race.
## This is coverage of the batched fast paths, not timing.
bench-smoke:
	$(GO) test -race -run='^$$' -bench=. -benchtime=1x ./internal/core ./internal/stream ./internal/pubsub ./internal/kvstore

## alloc-smoke: enforce the committed allocation budgets on the
## zero-allocation hot paths (cell slicing through views, tuple codec
## reuse), on the 8 MB image plane (one frame-sized buffer per encode and
## per client hop, none per decode, none in the broker or the LogServer,
## so one for a client receiving and decoding an image tuple; nothing for
## an unwatched connector tap),
## on one deep correlate window's DBSCAN (a frontier bounded by n), and on
## stage chains one and eight stages deep (a fixed cost per run, nothing
## per tuple).
## Any allocs/op or B/op above alloc_budget.json fails the build — see
## DESIGN.md §13 "Memory model".
alloc-smoke:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -run='^$$' -bench='BenchmarkAppendSplitCells|BenchmarkMarshal|BenchmarkUnmarshal' -benchtime=20x -benchmem ./internal/otimage > alloc-smoke.out
	$(GO) test -run='^$$' -bench='BenchmarkEncodeTupleAppend|BenchmarkDecodeTuple/cell' -benchtime=1000x -benchmem ./internal/core >> alloc-smoke.out
	$(GO) test -run='^$$' -bench='BenchmarkEncodeTuple/image2000|BenchmarkDecodeTuple/image2000|BenchmarkTapImage|BenchmarkReceiveDecode8MiB' -benchtime=20x -benchmem ./internal/core >> alloc-smoke.out
	$(GO) test -run='^$$' -bench='BenchmarkTCPLargeImagePayload|BenchmarkRemoteFetch8MiB' -benchtime=20x -benchmem ./internal/pubsub >> alloc-smoke.out
	$(GO) test -run='^$$' -bench='BenchmarkDBSCANDeepWindow' -benchtime=20x -benchmem ./internal/cluster >> alloc-smoke.out
	$(GO) test -run='^$$' -bench='BenchmarkStageChain/depth[18]$$' -benchtime=20x -benchmem ./internal/core >> alloc-smoke.out
	./bin/benchjson -budget alloc_budget.json < alloc-smoke.out
	@rm -f alloc-smoke.out

## profile: a profiled figure run for attaching pprof evidence to perf PRs.
profile:
	$(GO) build -o bin/strata-bench ./cmd/strata-bench
	./bin/strata-bench -fig 7 -reps 1 -layers 10 -cpuprofile cpu.prof -memprofile mem.prof
	@echo "inspect with: $(GO) tool pprof cpu.prof (or mem.prof)"

## chaos: the faultinject kill-and-recover suite under -race — checkpointed
## pipelines are crashed at armed crashpoints (mid-run and mid-checkpoint)
## and must recover to outputs identical to an uncrashed run (DESIGN.md §10).
chaos:
	$(selected) $(GO) test -race -count=1 -run '^TestChaos' ./internal/core

## overload: the graceful-degradation suite under -race (DESIGN.md §11) —
## the controller ladder, knob-driven shed gates and their accounting,
## deadline termini, the client's Block-only pending buffer across a
## heartbeat redial, and slow-consumer eviction. A test joins the suite by
## carrying the TestOverload name prefix.
overload:
	$(selected) $(GO) test -race -count=1 -run '^TestOverload' ./internal/core ./internal/stream
	$(selected) $(GO) test -race -count=1 -run '^TestOverload' ./internal/pubsub

## metrics-smoke: boot a full deployment (manager + broker + store + traced
## pipeline) behind the telemetry HTTP handler and assert /metrics serves a
## valid Prometheus exposition covering every layer, and /debug/traces a
## sampled multi-operator trace. Validation is the stdlib-only line parser
## in internal/telemetry/validate.go — no external dependencies.
metrics-smoke:
	$(selected) $(GO) test -count=1 -v -run '^TestEndToEndMetricsSmoke$$' ./internal/telemetry

## obs-smoke: split one pipeline across three OS processes (source in the
## test binary, re-exec'ed broker and worker helpers) and assert a single
## sampled tuple yields ONE merged trace with span fragments from all three
## PIDs — fetched from each process's /debug/trace/<id> endpoint, the same
## join `strata-trace` performs — then SIGQUIT the worker and assert the
## flight recorder dumped flightrec-<pid>.json (DESIGN.md §12).
obs-smoke:
	$(selected) $(GO) test -count=1 -v -run '^TestObsSmokeCrossProcess$$' ./internal/core

## e2e: the multi-process chaos scenarios (DESIGN.md §14) — a real
## strata-broker and strata-worker spawned as OS processes, their link
## routed through a fault-injecting TCP proxy, each scenario (worker
## SIGKILL, broker SIGKILL, partition, wire corruption, slow-consumer
## eviction, armed crashpoint) asserting the durable sink's dump is
## byte-identical to a fault-free run. Logs, flight-recorder dumps, and
## failure snapshots land under bench-out/e2e/<TestName>/. The -timeout is
## the hard stop: a wedged scenario fails instead of hanging CI.
e2e:
	$(selected) $(GO) test -count=1 -v -timeout 300s -run '^TestE2E' ./internal/harness
