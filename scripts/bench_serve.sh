#!/usr/bin/env bash
# bench_serve.sh — serving-tier latency benchmark through the real
# binary.
#
# Builds errserve and errload, boots a server on a private port, drives
# the errload traffic mix at a fixed rate, and collects the server-side
# /v1/errata latency percentiles from the per-endpoint Prometheus
# histograms (scraped before and after the run and differenced). Emits
# BENCH_serve.json:
#
#   {"suite": "serve", "rps": ..., "duration": "...",
#    "runs": [{"p50_seconds": ..., "p99_seconds": ...,
#              "requests": ..., "errors": 0}]}
#
# Knobs (env): RPS (default 300), DURATION (default 5s), OUT (default
# BENCH_serve.json), SLO_P50/SLO_P99 (errload SLO gates, 0 = off),
# RACE=1 builds both binaries with the race detector (slower; used by
# the CI smoke).
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${BENCH_SERVE_PORT:-18373}"
ADDR="127.0.0.1:${PORT}"
RPS="${RPS:-300}"
DURATION="${DURATION:-5s}"
OUT="${OUT:-BENCH_serve.json}"
SLO_P50="${SLO_P50:-0}"
SLO_P99="${SLO_P99:-0}"

WORK="$(mktemp -d)"
SERVER_PID=""
trap 'kill "${SERVER_PID:-}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

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
# errload's own JSON; pull the fields with a line-oriented scrape (keys
# are unique per scope in that output) to stay dependency-free.
rep="$WORK/load.json"
p50=$(awk '/"errata"/,/}/' "$rep" | awk -F': ' '/"p50_seconds"/ {gsub(/,/, "", $2); print $2; exit}')
p99=$(awk '/"errata"/,/}/' "$rep" | awk -F': ' '/"p99_seconds"/ {gsub(/,/, "", $2); print $2; exit}')
reqs=$(awk -F': ' '/"requests"/ {gsub(/,/, "", $2); print $2; exit}' "$rep")
errs=$(awk -F': ' '/"errors"/ {gsub(/,/, "", $2); print $2; exit}' "$rep")
{
    printf '{\n  "suite": "serve",\n  "rps": %s,\n  "duration": "%s",\n  "runs": [\n' "$RPS" "$DURATION"
    printf '    {"p50_seconds": %s, "p99_seconds": %s, "requests": %s, "errors": %s}\n' \
        "$p50" "$p99" "$reqs" "$errs"
    printf '  ]\n}\n'
} >"$OUT"

echo "wrote $OUT" >&2
cat "$OUT" >&2
