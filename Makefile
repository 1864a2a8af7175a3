GO ?= go

.PHONY: build test race check arch bench bench-classify bench-pipeline bench-serve bench-store check-metrics ingest-smoke fuzz-short cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Architecture guards: hexagonal import rules and the exported pkg/
# API snapshot, plus go vet (mirrors the CI `arch` job).
arch:
	$(GO) test ./internal/archtest/
	$(GO) vet ./...

# The local pre-push gate: build, architecture guards, full tests.
check: build arch test

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Classify matching-kernel benchmarks (naive / prefilter / memo /
# prefilter+memo); emits BENCH_classify.json for the perf trajectory.
bench-classify:
	./scripts/bench_classify.sh

# Stage-graph pipeline benchmarks (cold build vs fully warm replay);
# emits BENCH_pipeline.json with the warm-replay speedup ratio.
bench-pipeline:
	./scripts/bench_pipeline.sh

# Serving tier: the BenchmarkServeLadder alloc gate (full Handler() at
# most 3 allocs/op above the bare handler), then latency through the
# real binary (errserve + errload); emits BENCH_serve.json with the
# exact client-side /v1/errata p50/p99, the ladder rows and the ingest
# layer rows (Apply and SwapDelta of one revised document, and
# SwapDelta's merge and fragments parts).
bench-serve:
	./scripts/bench_serve.sh

# Store-format benchmarks: cold open v1 vs v2 and the stitched serve
# hot path; emits BENCH_store.json and enforces the >=10x cold-open
# speedup and <=2 allocs/op gates.
bench-store:
	./scripts/bench_store.sh

# End-to-end /metrics exposition check against a live errserve.
check-metrics:
	./scripts/check_metrics.sh

# End-to-end streaming-ingest check (HTTP endpoint + spool watcher)
# against a live errserve.
ingest-smoke:
	./scripts/ingest_smoke.sh

fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzParseDocument -fuzztime 20s -fuzzminimizetime 1x ./internal/specdoc/
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 20s -fuzzminimizetime 1x ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzOpenV2 -fuzztime 20s -fuzzminimizetime 1x ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzFragmentRow -fuzztime 20s -fuzzminimizetime 1x ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzClassifyEquivalence -fuzztime 20s -fuzzminimizetime 1x ./internal/classify/
	$(GO) test -run '^$$' -fuzz FuzzCandidatesFold -fuzztime 20s -fuzzminimizetime 1x ./internal/match/
	$(GO) test -run '^$$' -fuzz FuzzDeltaMerge -fuzztime 20s -fuzzminimizetime 1x ./internal/ingest/
	$(GO) test -run '^$$' -fuzz FuzzErrataQuery -fuzztime 20s -fuzzminimizetime 1x ./internal/serve/

cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./...
	$(GO) tool cover -func=cover.out | tail -1
