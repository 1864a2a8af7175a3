#!/usr/bin/env bash
# ingest_smoke.sh — end-to-end streaming-ingest smoke test.
#
# Boots errserve with a spool directory, then exercises both
# ingest paths against the real binary:
#
#   1. POST /v1/admin/ingest with a rendered document: the generation
#      must advance and the response must report the ingested document.
#      One of its errata with a fresh "I-<hex>" cluster key is recorded.
#   2. POSTing the identical bytes again must be an idempotent no-op
#      (skipped=1, same generation).
#   3. A half-written spool file (no "END OF DOCUMENT" terminator) must
#      be left in place, un-ingested.
#   4. A complete document renamed into the spool must be ingested and
#      moved to done/ within a few poll periods.
#   5. After POSTing an earlier-generation document, the key recorded in
#      step 1 must still name the same erratum title.
#   6. SIGHUP must reload: the generation advances, /v1/stats is back to
#      its pre-step-1 errata count, and re-POSTing the step-1 document
#      ingests it again (documents=1, skipped=0), so the ingest state was
#      reset together with the served snapshot.
#
# Finally the ingest metric families must be present on /metrics.
# Exits non-zero on any violation.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${INGEST_SMOKE_PORT:-18373}"
ADDR="127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
trap 'kill "${SERVER_PID:-}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/errserve" ./cmd/errserve
go build -o "$WORK/errgen" ./cmd/errgen

# Documents from a different seed than the server's corpus, so every
# ingested file genuinely extends the served database.
"$WORK/errgen" -seed 2 -dir "$WORK/docs" >/dev/null
DOCS=("$WORK"/docs/*.txt)
[ "${#DOCS[@]}" -ge 2 ] || { echo "FAIL: errgen produced ${#DOCS[@]} documents" >&2; exit 1; }
INTEL=("$WORK"/docs/intel-*.txt)
[ "${#INTEL[@]}" -ge 2 ] || { echo "FAIL: errgen produced ${#INTEL[@]} Intel documents" >&2; exit 1; }
# The latest-generation Intel document goes first and the earliest last,
# so the last POST sorts before every fresh cluster of the first.
LATE="${INTEL[${#INTEL[@]}-1]}"
EARLY="${INTEL[0]}"

SPOOL="$WORK/spool"
"$WORK/errserve" -addr "$ADDR" -seed 1 -spool "$SPOOL" -spool-interval 100ms &
SERVER_PID=$!

for _ in $(seq 1 100); do
    if curl -fsS "http://${ADDR}/healthz" >/dev/null 2>&1; then
        break
    fi
    sleep 0.2
done
gen() { curl -fsS "http://${ADDR}/healthz" | sed -n 's/.*"generation":\([0-9]*\).*/\1/p'; }
errata() { curl -fsS "http://${ADDR}/v1/stats" | sed -n 's/.*"errata":\([0-9]*\).*/\1/p'; }
GEN0=$(gen)
ERRATA0=$(errata)

# 1. Ingest over HTTP: generation must advance by one.
RESP=$(curl -fsS -X POST --data-binary @"$LATE" "http://${ADDR}/v1/admin/ingest")
grep -q '"status":"ok"' <<<"$RESP" || { echo "FAIL: ingest response: $RESP" >&2; exit 1; }
grep -q '"documents":1' <<<"$RESP" || { echo "FAIL: ingest response: $RESP" >&2; exit 1; }
GEN1=$(gen)
[ "$GEN1" -eq $((GEN0 + 1)) ] || { echo "FAIL: generation $GEN0 -> $GEN1 after ingest" >&2; exit 1; }
ENTRY=$(curl -fsS "http://${ADDR}/v1/errata?doc=$(basename "$LATE" .txt)&unique=false&limit=1000" |
    sed 's/},{/}\n{/g' | grep -m1 '"key":"I-[0-9a-f]\{8,\}"' || true)
KEY=$(sed -n 's/.*"key":"\([^"]*\)".*/\1/p' <<<"$ENTRY")
TITLE=$(sed -n 's/.*"title":"\([^"]*\)".*/\1/p' <<<"$ENTRY")
[ -n "$KEY" ] && [ -n "$TITLE" ] || { echo "FAIL: no fresh I-<hex> key among the ingested errata" >&2; exit 1; }

# 2. Idempotent re-ingest: skipped, no new generation.
RESP=$(curl -fsS -X POST --data-binary @"$LATE" "http://${ADDR}/v1/admin/ingest")
grep -q '"skipped":1' <<<"$RESP" || { echo "FAIL: re-ingest response: $RESP" >&2; exit 1; }
[ "$(gen)" -eq "$GEN1" ] || { echo "FAIL: re-ingest advanced the generation" >&2; exit 1; }

# 3. A half-written file must survive several polls un-ingested.
head -c 200 "${DOCS[1]}" > "$SPOOL/halfway.txt"
sleep 0.5
[ -f "$SPOOL/halfway.txt" ] || { echo "FAIL: half-written file was consumed" >&2; exit 1; }
[ "$(gen)" -eq "$GEN1" ] || { echo "FAIL: half-written file was ingested" >&2; exit 1; }
rm "$SPOOL/halfway.txt"

# 4. The temp+rename contract: a complete document lands in done/.
cp "${DOCS[1]}" "$SPOOL/arrival.txt.tmp"
mv "$SPOOL/arrival.txt.tmp" "$SPOOL/arrival.txt"
for _ in $(seq 1 50); do
    if [ -f "$SPOOL/done/arrival.txt" ]; then
        break
    fi
    sleep 0.2
done
[ -f "$SPOOL/done/arrival.txt" ] || { echo "FAIL: spooled document not processed" >&2; exit 1; }
GEN2=$(gen)
[ "$GEN2" -eq $((GEN1 + 1)) ] || { echo "FAIL: generation $GEN1 -> $GEN2 after spool ingest" >&2; exit 1; }

# 5. Keys stay put: an earlier-generation document does not move the
# key recorded in step 1 to another erratum.
curl -fsS -X POST --data-binary @"$EARLY" "http://${ADDR}/v1/admin/ingest" | grep -q '"documents":1' ||
    { echo "FAIL: ingest of $EARLY" >&2; exit 1; }
curl -fsS "http://${ADDR}/v1/errata/${KEY}" | grep -qF "\"title\":\"${TITLE}\"" ||
    { echo "FAIL: /v1/errata/${KEY} no longer names \"${TITLE}\"" >&2; exit 1; }

# The ingested documents must be queryable.
curl -fsS "http://${ADDR}/v1/errata?limit=1" | grep -q '"total"'

# 6. A SIGHUP reload rebuilds the seed corpus, dropping every document
# ingested before it, and resets the ingester with it.
GEN3=$(gen)
kill -HUP "$SERVER_PID"
for _ in $(seq 1 300); do
    if [ "$(gen)" -gt "$GEN3" ]; then
        break
    fi
    sleep 0.2
done
[ "$(gen)" -gt "$GEN3" ] || { echo "FAIL: SIGHUP did not advance generation $GEN3" >&2; exit 1; }
[ "$(errata)" -eq "$ERRATA0" ] || { echo "FAIL: $(errata) errata after SIGHUP, want $ERRATA0" >&2; exit 1; }
RESP=$(curl -fsS -X POST --data-binary @"$LATE" "http://${ADDR}/v1/admin/ingest")
grep -q '"documents":1,"errata":[0-9]*,"skipped":0' <<<"$RESP" ||
    { echo "FAIL: re-POST after SIGHUP: $RESP" >&2; exit 1; }

# Ingest metric families on the shared registry.
EXPO=$(curl -fsS "http://${ADDR}/metrics")
for want in \
    'rememberr_ingest_documents_total' \
    'rememberr_ingest_merge_duration_seconds' \
    'rememberr_ingest_swap_lag_seconds' \
    'rememberr_snapshot_delta_swaps_total' \
    'rememberr_ingest_spool_files_total{result="ingested"}'
do
    if ! grep -qF "$want" <<<"$EXPO"; then
        echo "FAIL: /metrics missing: $want" >&2
        exit 1
    fi
done

echo "OK: streaming ingest validated end to end on $ADDR (generations $GEN0 -> $(gen))"
