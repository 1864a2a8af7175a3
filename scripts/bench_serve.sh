#!/usr/bin/env bash
# bench_serve.sh — serving-tier benchmark: a layer ladder in process,
# then latency through the real binary.
#
# 1. Runs BenchmarkServeLadder (internal/serve, never with -race): one
#    v2 point lookup through the bare handler, through instrument, and
#    through the full Handler() with its mux. It is a layer benchmark,
#    not serving latency. The script fails when the full Handler()
#    allocates more than MAX_EXTRA_ALLOCS (3) allocs/op above the bare
#    handler — the gate that keeps per-request wrappers cheap.
# 2. Runs BenchmarkIngestPost (internal/serve): errserve's ingest step
#    for one revised document onto a warm server backed by a mapped v2
#    store, without HTTP, as layer rows — ingest.Ingester.Apply
#    ("apply"), Server.SwapDelta ("swap_delta") and SwapDelta's two
#    parts, the index merge ("swap_delta.merge") and the fragment rows
#    ("swap_delta.fragments"). They are layer rows, not serving
#    latency; the POST's end-to-end figure is e2ebench's ingest-mixed
#    workload.
# 3. Builds errserve and errload, boots a server on a private port,
#    drives the errload traffic mix at a fixed rate, and records the
#    exact client-side latency of the /v1/errata request class (errload
#    keeps every request's latency per class; no histogram
#    interpolation).
#
# Emits BENCH_serve.json:
#
#   {"suite": "serve", "rps": ..., "duration": "...",
#    "runs": [{"class": "errata", "p50_seconds": ..., "p99_seconds": ...,
#              "samples": ..., "requests": ..., "errors": 0}],
#    "ladder": [{"rung": "bare", "ns_per_op": ..., "allocs_per_op": ...}, ...],
#    "ingest": [{"layer": "apply", "ns_per_op": ..., "bytes_per_op": ...,
#                "allocs_per_op": ...}, {"layer": "swap_delta", ...},
#               {"layer": "swap_delta.merge", ...},
#               {"layer": "swap_delta.fragments", ...}]}
#
# samples is the errata class's successful requests; at the default
# 300 rps for 10s there are ~1,250, so p99 has ~12 samples beyond it.
#
# Knobs (env): RPS (default 300), DURATION (default 10s), OUT (default
# BENCH_serve.json), SLO_P50/SLO_P99 (errload SLO gates on the exact
# client-side p50/p99 of the /v1/errata class, 0 = off), RACE=1 builds both
# binaries with the race detector (slower; used by the CI smoke).
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${BENCH_SERVE_PORT:-18373}"
ADDR="127.0.0.1:${PORT}"
RPS="${RPS:-300}"
DURATION="${DURATION:-10s}"
MAX_EXTRA_ALLOCS=3
OUT="${OUT:-BENCH_serve.json}"
SLO_P50="${SLO_P50:-0}"
SLO_P99="${SLO_P99:-0}"

WORK="$(mktemp -d)"
SERVER_PID=""
trap 'kill "${SERVER_PID:-}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

echo "running the serve ladder..." >&2
go test -run '^$' -bench '^BenchmarkServeLadder$' -benchmem -count 1 ./internal/serve/ >"$WORK/ladder.txt"
# Benchmark lines read "BenchmarkServeLadder/<rung>-<procs> N <ns> ns/op
# <bytes> B/op <allocs> allocs/op".
awk '/^BenchmarkServeLadder\// {
    rung = $1; sub(/^BenchmarkServeLadder\//, "", rung); sub(/-[0-9]+$/, "", rung)
    print rung, $3, $7
}' "$WORK/ladder.txt" >"$WORK/ladder.rows"
cat "$WORK/ladder.rows" >&2
bare_allocs=$(awk '$1 == "bare" {print $3}' "$WORK/ladder.rows")
full_allocs=$(awk '$1 == "handler" {print $3}' "$WORK/ladder.rows")
if [ -z "$bare_allocs" ] || [ -z "$full_allocs" ]; then
    echo "FAIL: BenchmarkServeLadder did not report the bare and handler rungs" >&2
    cat "$WORK/ladder.txt" >&2
    exit 1
fi
if [ "$((full_allocs - bare_allocs))" -gt "$MAX_EXTRA_ALLOCS" ]; then
    echo "FAIL: full Handler() point lookup allocates ${full_allocs}/op, bare handler ${bare_allocs}/op (at most ${MAX_EXTRA_ALLOCS} more allowed)" >&2
    exit 1
fi

echo "running the ingest layer rows..." >&2
go test -run '^$' -bench '^BenchmarkIngestPost$' -benchmem -count 1 ./internal/serve/ >"$WORK/ingest.txt"
# Lines read "BenchmarkIngestPost/<layer>-<procs> N <ns> ns/op <bytes>
# B/op <allocs> allocs/op".
awk '/^BenchmarkIngestPost\// {
    layer = $1; sub(/^BenchmarkIngestPost\//, "", layer); sub(/-[0-9]+$/, "", layer)
    print layer, $3, $5, $7
}' "$WORK/ingest.txt" >"$WORK/ingest.rows"
cat "$WORK/ingest.rows" >&2
if [ "$(wc -l <"$WORK/ingest.rows")" -ne 4 ]; then
    echo "FAIL: BenchmarkIngestPost did not report the apply, swap_delta, swap_delta.merge and swap_delta.fragments rows" >&2
    cat "$WORK/ingest.txt" >&2
    exit 1
fi

BUILDFLAGS=()
if [ "${RACE:-0}" = "1" ]; then
    BUILDFLAGS+=(-race)
fi
go build "${BUILDFLAGS[@]}" -o "$WORK/errserve" ./cmd/errserve
go build "${BUILDFLAGS[@]}" -o "$WORK/errload" ./cmd/errload

echo "benchmarking at ${RPS} rps for ${DURATION}..." >&2
"$WORK/errserve" -addr "$ADDR" -seed 1 >"$WORK/serve.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
    if curl -fsS "http://${ADDR}/healthz" >/dev/null 2>&1; then
        break
    fi
    sleep 0.2
done
curl -fsS "http://${ADDR}/healthz" >/dev/null

"$WORK/errload" -url "http://${ADDR}" -rps "$RPS" -duration "$DURATION" \
    -slo-p50 "$SLO_P50" -slo-p99 "$SLO_P99" \
    -out "$WORK/load.json"

kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# Assemble BENCH_serve.json from the errload report. The report is
# errload's own indented JSON; pull the fields with a line-oriented
# scrape to stay dependency-free. The errata class sits under
# "classes", whose keys sort errata, erratum, stats.
rep="$WORK/load.json"
class_field() {
    awk -F': ' -v key="\"$1\"" '/"classes"/ {c = 1} c && /"errata"/ {e = 1}
        e && $1 ~ key {gsub(/[ ,]/, "", $2); print $2; exit}' "$rep"
}
p50=$(class_field p50_seconds)
p99=$(class_field p99_seconds)
samples=$(class_field count)
reqs=$(awk -F': ' '/"requests"/ {gsub(/,/, "", $2); print $2; exit}' "$rep")
errs=$(awk -F': ' '/"errors"/ {gsub(/,/, "", $2); print $2; exit}' "$rep")
{
    printf '{\n  "suite": "serve",\n  "rps": %s,\n  "duration": "%s",\n  "runs": [\n' "$RPS" "$DURATION"
    printf '    {"class": "errata", "p50_seconds": %s, "p99_seconds": %s, "samples": %s, "requests": %s, "errors": %s}\n' \
        "$p50" "$p99" "$samples" "$reqs" "$errs"
    printf '  ],\n  "ladder": [\n'
    awk '{printf "%s    {\"rung\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s}", (NR > 1 ? ",\n" : ""), $1, $2, $3}
        END {print ""}' "$WORK/ladder.rows"
    printf '  ],\n  "ingest": [\n'
    awk '{printf "%s    {\"layer\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", (NR > 1 ? ",\n" : ""), $1, $2, $3, $4}
        END {print ""}' "$WORK/ingest.rows"
    printf '  ]\n}\n'
} >"$OUT"

echo "wrote $OUT" >&2
cat "$OUT" >&2
