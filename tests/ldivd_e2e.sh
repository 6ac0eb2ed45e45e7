#!/usr/bin/env bash
# End-to-end gate for the `ldivd` daemon surface. Run by ctest
# (ldivd_e2e) and by CI's daemon-e2e job:
#
#   ldivd_e2e.sh <path-to-ldiv-binary> <repo-source-dir>
#
# Starts `ldiv serve` on a unix socket, drives it with `ldiv submit` and
# `ldiv ctl`, and requires: byte-identical outputs versus the one-shot
# CLI (including under --memory-budget and --threads), a table cache hit
# on a repeated submission (observable in the reply and in ctl stats),
# artifact cache hits on a repeated sweep with byte-identical outputs,
# one `--config` job file giving the same bytes one-shot and submitted,
# a schema past the kernels' 64-bit packing failing typed without taking
# the daemon down, explicit busy backpressure under a submit flood (exit
# 4, never a hang or a drop), a graceful drain on shutdown, and finally a
# --workers=4 daemon running the whole submit matrix at once, every
# output still byte-identical to its one-shot reference.
#
# LDIVD_E2E_ONLY=concurrent writes the one-shot references and runs just
# that last section -- the TSan CI job runs it against a TSan build.
set -euo pipefail

BIN=$1
# Absolute, so one-shot runs and the daemon (which sees absolute paths
# from `submit`) record the same input source in their reports.
SRC=$(cd "$2" && pwd)
INPUT="$SRC/tests/data/micro.csv"
SCHEMA='Age:79,Gender:2,Race:9|Income:50'
ONLY=${LDIVD_E2E_ONLY:-}

TMP=$(mktemp -d)
SOCK="$TMP/ldivd.sock"
SERVE_LOG="$TMP/serve.log"
SERVE_PID=

cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2> /dev/null
  [ -n "$SERVE_PID" ] && wait "$SERVE_PID" 2> /dev/null
  rm -rf "$TMP"
}
trap cleanup EXIT

start_daemon() {
  "$BIN" serve --socket="$SOCK" --queue-depth="$2" --workers="$1" 2> "$SERVE_LOG" &
  SERVE_PID=$!
  # `ldiv ctl` retries ECONNREFUSED/ENOENT briefly, so no sleep is needed.
  "$BIN" ctl --socket="$SOCK" ping | grep -q "status = ok" ||
    { echo "FAIL: ping"; cat "$SERVE_LOG"; exit 1; }
}

stop_daemon() {
  "$BIN" ctl --socket="$SOCK" shutdown | grep -q "status = stopping" ||
    { echo "FAIL: shutdown ack"; exit 1; }
  local stopped=0
  for _ in $(seq 1 100); do
    kill -0 "$SERVE_PID" 2> /dev/null || { stopped=1; break; }
    sleep 0.1
  done
  [ "$stopped" = 1 ] || { echo "FAIL: daemon did not stop within 10s"; exit 1; }
  wait "$SERVE_PID" || { echo "FAIL: serve exited non-zero"; cat "$SERVE_LOG"; exit 1; }
  SERVE_PID=
  grep -q "drained and stopped" "$SERVE_LOG" ||
    { echo "FAIL: serve log has no drain line"; cat "$SERVE_LOG"; exit 1; }
  [ -S "$SOCK" ] && { echo "FAIL: socket file survived shutdown"; exit 1; }
  return 0
}

# The submit matrix: a plain CSV run, a sweep with releases, a --threads
# run, and two --memory-budget out-of-core runs. Each budgeted table
# estimates past a quarter of its budget, so ingestion genuinely takes
# the paged path (smaller tables stay in-RAM and cache under a budget).
MATRIX=(csv sweep threads budget budget12)
matrix_job() {
  case $1 in
    csv) JOB=(--algo=tp+ --l=2 --input="$INPUT" --schema="$SCHEMA") ;;
    sweep) JOB=(--algo=all --l=2,4 --n=2000 --d=3 --write-releases) ;;
    threads) JOB=(--algo=mondrian --l=2 --n=20000 --d=3 --threads=2) ;;
    budget) JOB=(--algo=hilbert --l=2 --n=150000 --d=3 --memory-budget=8M) ;;
    budget12) JOB=(--algo=tp+ --l=3 --n=200000 --d=3 --memory-budget=12M) ;;
  esac
}

# Every file the one-shot run of matrix job $1 wrote (reports, release,
# per-job sweep releases) must exist byte-identical under the stem $2.
compare_outputs() {
  local name=$1 stem=$2 ref
  for ref in "$TMP/oneshot_$name".* "$TMP/oneshot_${name}"_*; do
    [ -e "$ref" ] || continue
    cmp "$ref" "$stem${ref#"$TMP/oneshot_$name"}" ||
      { echo "FAIL: $name: ${ref##*/} differs between one-shot and daemon"; exit 1; }
  done
}

# One-shot references (--no-timings for byte-determinism).
for name in "${MATRIX[@]}"; do
  matrix_job "$name"
  "$BIN" "${JOB[@]}" --no-timings --out="$TMP/oneshot_$name" 2> /dev/null
done

if [ "$ONLY" != "concurrent" ]; then

echo "== serve: daemon starts and answers ping =="
start_daemon 1 4

echo "== submit matrix: byte-identical to the one-shot CLI =="
for name in "${MATRIX[@]}"; do
  matrix_job "$name"
  "$BIN" submit --socket="$SOCK" "${JOB[@]}" --no-timings --out="$TMP/daemon_$name" > /dev/null
  compare_outputs "$name" "$TMP/daemon_$name"
  echo "ok: $name"
done
[ -f "$TMP/oneshot_sweep.job11.csv" ] ||
  { echo "FAIL: sweep did not write its 12 releases"; exit 1; }

echo "== repeat submission hits the cache =="
# daemon_csv ran the micro CSV once already; the same input again must be
# served from cache, visible in the reply and in ctl stats.
"$BIN" submit --socket="$SOCK" --algo=tp --l=2 --input="$INPUT" --schema="$SCHEMA" \
  --no-timings --out="$TMP/daemon_csv2" > "$TMP/repeat.out"
grep -q "cache-hits = 1" "$TMP/repeat.out" ||
  { echo "FAIL: repeated input missed the cache"; cat "$TMP/repeat.out"; exit 1; }
"$BIN" ctl --socket="$SOCK" stats > "$TMP/stats.out"
grep -q "cache-hits = [1-9]" "$TMP/stats.out" ||
  { echo "FAIL: ctl stats reports no cache hits"; cat "$TMP/stats.out"; exit 1; }

echo "== repeat sweep hits the cached artifacts =="
# A fresh (n, d) cell, so the first sweep builds its GroupedTable and
# Hilbert order cold; the repeat resolves both from the cache
# (visible in the reply and in ctl stats) and every output must stay
# byte-identical to the cold run.
"$BIN" submit --socket="$SOCK" --algo=tp,tp+,hilbert --l=2,4 --n=5000 --d=3 \
  --write-releases --no-timings --out="$TMP/art_cold" > "$TMP/art_cold.out"
grep -q "artifact-misses = 2" "$TMP/art_cold.out" ||
  { echo "FAIL: cold sweep did not build both artifacts"; cat "$TMP/art_cold.out"; exit 1; }
"$BIN" submit --socket="$SOCK" --algo=tp,tp+,hilbert --l=2,4 --n=5000 --d=3 \
  --write-releases --no-timings --out="$TMP/art_hot" > "$TMP/art_hot.out"
grep -q "artifact-hits = 2" "$TMP/art_hot.out" ||
  { echo "FAIL: repeated sweep missed the cached artifacts"; cat "$TMP/art_hot.out"; exit 1; }
cmp "$TMP/art_cold.json" "$TMP/art_hot.json" ||
  { echo "FAIL: artifact hit path changed the JSON report"; exit 1; }
cmp "$TMP/art_cold_metrics.csv" "$TMP/art_hot_metrics.csv" ||
  { echo "FAIL: artifact hit path changed the metrics"; exit 1; }
for k in $(seq 0 5); do
  cmp "$TMP/art_cold.job$k.csv" "$TMP/art_hot.job$k.csv" ||
    { echo "FAIL: artifact hit path changed release job$k"; exit 1; }
done
"$BIN" ctl --socket="$SOCK" stats > "$TMP/stats_art.out"
grep -q "artifact-hits = [1-9]" "$TMP/stats_art.out" ||
  { echo "FAIL: ctl stats reports no artifact hits"; cat "$TMP/stats_art.out"; exit 1; }

echo "== one --config job file: one-shot and submitted, byte-identical =="
# The daemon reads the same keys with the same reader, so the file's
# `threads = auto` and byte-size budget mean the same on both paths.
cat > "$TMP/job.conf" << EOF
algo = tp,hilbert,anatomy
l = 2,3
input = $INPUT
schema = $SCHEMA
write-releases = true
no-timings = true
threads = auto
memory-budget = 64M
EOF
"$BIN" --config="$TMP/job.conf" --out="$TMP/conf_oneshot" 2> /dev/null
"$BIN" submit --socket="$SOCK" --config="$TMP/job.conf" --out="$TMP/conf_daemon" > /dev/null
[ -f "$TMP/conf_oneshot.job5.csv" ] || { echo "FAIL: config job wrote no releases"; exit 1; }
for ref in "$TMP/conf_oneshot".* "$TMP/conf_oneshot"_*; do
  [ -e "$ref" ] || continue
  cmp "$ref" "$TMP/conf_daemon${ref#"$TMP/conf_oneshot"}" ||
    { echo "FAIL: ${ref##*/} differs between ldiv --config and submit --config"; exit 1; }
done

echo "== spec errors reply with exit codes, not hangs =="
expect_exit() {
  local want=$1
  shift
  local got=0
  "$@" > /dev/null 2>&1 || got=$?
  [ "$got" -eq "$want" ] ||
    { echo "FAIL: expected exit $want, got $got for: $*"; exit 1; }
}
expect_exit 1 "$BIN" submit --socket="$SOCK" --algo=bogus --out="$TMP/x"
expect_exit 2 "$BIN" submit --socket="$SOCK" --algo=tp --l=100000 --input="$INPUT" \
  --schema="$SCHEMA" --out="$TMP/x"
expect_exit 3 "$BIN" submit --socket="$SOCK" --input="$TMP/no_such_file.csv" \
  --schema="$SCHEMA" --out="$TMP/x"
expect_exit 4 "$BIN" submit --socket="$TMP/no_daemon_here.sock" --algo=tp --out="$TMP/x"
expect_exit 1 "$BIN" serve --socket="$TMP/retired.sock" --artifact-cache=1M

echo "== a schema past the 64-bit packing fails typed; the daemon survives =="
# Seven raw QI columns of 90..900 labels: their domains multiply past the
# KL estimate's 64-bit point ids. The job gets an error reply (exit 1),
# and the daemon keeps serving with its counters consistent.
awk 'BEGIN {
  split("90 300 450 600 750 900 900", dom, " ")
  print "c1,c2,c3,c4,c5,c6,c7,sa"
  for (r = 0; r < 1000; r++) {
    for (a = 1; a <= 7; a++) printf "v%d_%d,", a, (r * 7 + a) % dom[a]
    print "s" (r % 10)
  }
}' > "$TMP/wide_raw.csv"
expect_exit 1 "$BIN" submit --socket="$SOCK" --algo=tp --l=2 --input="$TMP/wide_raw.csv" \
  --out="$TMP/x"
"$BIN" ctl --socket="$SOCK" ping | grep -q "status = ok" ||
  { echo "FAIL: the daemon stopped answering after a wide-schema job"; cat "$SERVE_LOG"; exit 1; }
"$BIN" ctl --socket="$SOCK" stats > "$TMP/stats_wide.out"
stat_value() { sed -n "s/^$1 = //p" "$TMP/stats_wide.out"; }
[ "$(stat_value accepted)" -eq \
  $(($(stat_value completed) + $(stat_value expired) + $(stat_value failed))) ] ||
  { echo "FAIL: accepted != completed + expired + failed"; cat "$TMP/stats_wide.out"; exit 1; }
matrix_job csv
"$BIN" submit --socket="$SOCK" "${JOB[@]}" --no-timings --out="$TMP/after_wide" > /dev/null
compare_outputs csv "$TMP/after_wide"

echo "== flood: backpressure is an explicit busy reply (exit 4) =="
# More simultaneous submits than queue-depth=4 can hold behind one
# worker: every client must exit 0 (ran) or 4 (busy); anything else --
# or a hang -- is a protocol failure.
FLOOD=10
declare -a FLOOD_PIDS=()
for i in $(seq 1 $FLOOD); do
  "$BIN" submit --socket="$SOCK" --algo=tp --l=2 --n=150000 --d=3 \
    --no-timings --out="$TMP/flood_$i" > /dev/null 2> /dev/null &
  FLOOD_PIDS+=($!)
done
RAN=0
BUSY=0
for pid in "${FLOOD_PIDS[@]}"; do
  got=0
  wait "$pid" || got=$?
  case "$got" in
    0) RAN=$((RAN + 1)) ;;
    4) BUSY=$((BUSY + 1)) ;;
    *) echo "FAIL: flood client exited $got (want 0 or 4)"; exit 1 ;;
  esac
done
[ $((RAN + BUSY)) -eq $FLOOD ] || { echo "FAIL: flood lost a client"; exit 1; }
[ "$RAN" -ge 1 ] || { echo "FAIL: flood ran no jobs at all"; exit 1; }
echo "ok: $RAN ran, $BUSY got busy replies"
"$BIN" ctl --socket="$SOCK" stats | grep -q "rejected-busy = $BUSY" ||
  { echo "FAIL: ctl stats disagrees with observed busy replies"; exit 1; }

echo "== graceful shutdown drains and exits 0 =="
stop_daemon

fi  # LDIVD_E2E_ONLY != concurrent

echo "== concurrent: --workers=4 runs the matrix at once, byte-identical =="
# A fresh four-worker daemon takes every matrix job at the same time.
# Each runs under its own --threads and --memory-budget, so every output
# must still match its one-shot reference.
start_daemon 4 8
declare -a CONCURRENT_PIDS=()
for name in "${MATRIX[@]}"; do
  matrix_job "$name"
  "$BIN" submit --socket="$SOCK" "${JOB[@]}" --no-timings --out="$TMP/concurrent_$name" \
    > /dev/null &
  CONCURRENT_PIDS+=($!)
done
for pid in "${CONCURRENT_PIDS[@]}"; do
  wait "$pid" || { echo "FAIL: a concurrent submit exited non-zero"; exit 1; }
done
for name in "${MATRIX[@]}"; do
  compare_outputs "$name" "$TMP/concurrent_$name"
  echo "ok: $name"
done
"$BIN" ctl --socket="$SOCK" stats > "$TMP/stats_concurrent.out"
MAX_RUNNING=$(sed -n 's/^max-running = //p' "$TMP/stats_concurrent.out")
[ "${MAX_RUNNING:-0}" -ge 2 ] && [ "$MAX_RUNNING" -le 4 ] ||
  { echo "FAIL: max-running should be 2..4"; cat "$TMP/stats_concurrent.out"; exit 1; }
echo "ok: up to $MAX_RUNNING jobs ran at once"
stop_daemon

echo "ldivd e2e: all checks passed"
