#!/usr/bin/env bash
# cache_smoke.sh — process-level smoke test of the content-addressed
# result cache (DESIGN.md §16).
#
# Boots the real ftspmd with a disk cache tier, runs the same sweep
# twice, and asserts the memoization contract: run 2 is answered from
# the cache (>0 hits on /healthz) with a result payload byte-identical
# to run 1. Then SIGTERMs the daemon and restarts it on the same cache
# file: the disk tier must survive the restart (a fresh process serves
# the sweep from disk-promoted entries, again byte-identical) and the
# warm /v1/evaluate + /v1/map paths must report cache hits. Finally
# one fresh /v1/evaluate is sent three times — a miss, the hit that
# decodes the entry, and a hit served from the decoded memo — and the
# three run bodies must be byte-identical.
set -u

DIR=$(mktemp -d)
PID=
trap '[ -n "$PID" ] && kill "$PID" 2>/dev/null; rm -rf "$DIR"' EXIT

go build -o "$DIR/ftspmd" ./cmd/ftspmd || exit 1

ADDR=127.0.0.1:8087
BASE="http://$ADDR"
CACHE="$DIR/results.cache"

start_daemon() {
  "$DIR/ftspmd" -listen "$ADDR" -data "$DIR/data" -cache "$CACHE" >"$1" 2>&1 &
  PID=$!
  for _ in $(seq 1 100); do
    curl -sf "$BASE/readyz" >/dev/null 2>&1 && return 0
    kill -0 "$PID" 2>/dev/null || { echo "daemon died during startup"; cat "$1"; exit 1; }
    sleep 0.1
  done
  echo "daemon never became ready"; cat "$1"; exit 1
}

# run_sweep OUT CKPT — submits a sweep (with its own checkpoint name,
# so runs on a restarted daemon never collide with a previous journal),
# polls the job to completion, and writes the result payload (the
# deterministic sweep summary) to OUT.
run_sweep() {
  local out=$1 ckpt=$2
  curl -sf -X POST "$BASE/v1/sweep" -d "{\"scale\":0.05,\"checkpoint\":\"$ckpt\"}" \
    -o "$DIR/submit.json" || { echo "sweep submit failed"; exit 1; }
  local id
  id=$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$DIR/submit.json")
  [ -n "$id" ] || { echo "no job id in reply:"; cat "$DIR/submit.json"; exit 1; }
  for _ in $(seq 1 600); do
    curl -sf "$BASE/v1/jobs/$id" -o "$DIR/job.json" || { echo "job poll failed"; exit 1; }
    case $(sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' "$DIR/job.json") in
      done)
        python3 -c 'import json,sys; json.dump(json.load(open(sys.argv[1]))["result"], open(sys.argv[2],"w"), sort_keys=True)' \
          "$DIR/job.json" "$out"
        return 0 ;;
      failed|canceled|interrupted)
        echo "sweep job ended badly:"; cat "$DIR/job.json"; exit 1 ;;
    esac
    sleep 0.1
  done
  echo "sweep job never finished"; cat "$DIR/job.json"; exit 1
}

# cache_stat FIELD — reads one cache counter off /healthz.
cache_stat() {
  curl -sf "$BASE/healthz" | python3 -c \
    'import json,sys; print(json.load(sys.stdin)["cache"][sys.argv[1]])' "$1"
}

echo "== boot ftspmd with a disk cache"
start_daemon "$DIR/daemon.log"

echo "== sweep run 1 (cold)"
run_sweep "$DIR/run1.json" run1.ckpt
HITS1=$(cache_stat hits)

echo "== sweep run 2 (must be served from the cache)"
run_sweep "$DIR/run2.json" run2.ckpt
HITS2=$(cache_stat hits)
[ "$HITS2" -gt "$HITS1" ] || {
  echo "run 2 produced no cache hits (run1=$HITS1 run2=$HITS2)"; exit 1; }
cmp -s "$DIR/run1.json" "$DIR/run2.json" || {
  echo "cached sweep diverged from cold run:"
  diff "$DIR/run1.json" "$DIR/run2.json" | head; exit 1; }

echo "== SIGTERM, expect clean drain"
kill -TERM "$PID"
wait "$PID" || { echo "drain failed"; cat "$DIR/daemon.log"; exit 1; }
[ -s "$CACHE" ] || { echo "no disk cache file written"; exit 1; }

echo "== restart on the same cache file: disk tier must survive"
start_daemon "$DIR/daemon2.log"
run_sweep "$DIR/run3.json" run3.ckpt
cmp -s "$DIR/run1.json" "$DIR/run3.json" || {
  echo "post-restart sweep diverged from original run:"
  diff "$DIR/run1.json" "$DIR/run3.json" | head; exit 1; }
DISK_HITS=$(cache_stat disk_hits)
[ "$DISK_HITS" -gt 0 ] || {
  echo "fresh process reported no disk-tier hits"; curl -sf "$BASE/healthz"; exit 1; }

echo "== warm /v1/evaluate flags the hit in its header"
curl -sfi -X POST "$BASE/v1/evaluate" \
  -d '{"workload":"sha","structure":"ftspm","scale":0.05}' -o "$DIR/evaluate.raw" \
  || { echo "evaluate failed"; exit 1; }
grep -qi '^X-Ftspm-Cache: hit' "$DIR/evaluate.raw" || {
  echo "evaluate after a sweep was not a cache hit:"; head -20 "$DIR/evaluate.raw"; exit 1; }

echo "== /v1/map batch composes cached placements"
curl -sf -X POST "$BASE/v1/map" -d '{"scale":0.05}' -o "$DIR/map.json" \
  || { echo "map failed"; exit 1; }
python3 - "$DIR/map.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
assert m["cache_misses"] == 0, f"warm map recomputed {m['cache_misses']} pairs"
assert m["cache_hits"] == len(m["entries"]) > 0, m["cache_hits"]
EOF

echo "== one fresh evaluate three times: miss, decoding hit, memo hit"
for i in 1 2 3; do
  curl -sf -X POST "$BASE/v1/evaluate" \
    -d '{"workload":"sha","structure":"ftspm","scale":0.03}' \
    -D "$DIR/eval$i.hdr" -o "$DIR/eval$i.json" || { echo "evaluate $i failed"; exit 1; }
  # The body is the run plus elapsed_ms, which is timing, not result.
  grep -v '"elapsed_ms"' "$DIR/eval$i.json" >"$DIR/run$i.eval" || exit 1
done
for i in 1 2 3; do
  case $i in 1) want=miss ;; *) want=hit ;; esac
  grep -qi "^X-Ftspm-Cache: $want" "$DIR/eval$i.hdr" || {
    echo "evaluate $i: want X-Ftspm-Cache: $want, got:"; cat "$DIR/eval$i.hdr"; exit 1; }
done
for i in 2 3; do
  cmp -s "$DIR/run1.eval" "$DIR/run$i.eval" || {
    echo "evaluate $i run diverged from the miss:"
    diff "$DIR/run1.eval" "$DIR/run$i.eval" | head; exit 1; }
done

kill -TERM "$PID"
wait "$PID" || { echo "second drain failed"; cat "$DIR/daemon2.log"; exit 1; }

echo "cache smoke OK (warm sweep byte-identical, disk tier survives restart, map/evaluate served from memos, miss == decoding hit == memo hit)"
