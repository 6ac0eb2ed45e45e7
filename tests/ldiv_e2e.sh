#!/usr/bin/env bash
# End-to-end gate for the `ldiv` CLI binary. Run by ctest (ldiv_e2e) and
# by CI's e2e-smoke job:
#
#   ldiv_e2e.sh <path-to-ldiv-binary> <repo-source-dir>
#
# For every registered algorithm: anonymize the committed micro CSV and
# check that the release and the JSON/CSV metrics reports exist and are
# well-formed; then repeat over the committed raw string-valued CSV
# (dictionary ingestion) and require decoded labels plus the dictionary
# sidecar in the outputs. Then run a 12-job sweep (all algorithms x l in
# {2,4}) through the batch driver at --threads=1,2,4 and require
# byte-identical --no-timings reports AND byte-identical per-job releases
# (deterministic, job-ordered output at any thread budget).
#
# LDIV_E2E_ONLY=threads skips everything but that last determinism
# section -- the TSan CI job runs just the threaded surface.
set -euo pipefail

BIN=$1
SRC=$2
INPUT="$SRC/tests/data/micro.csv"
SCHEMA='Age:79,Gender:2,Race:9|Income:50'
ONLY=${LDIV_E2E_ONLY:-}

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

HAVE_PYTHON=0
command -v python3 > /dev/null && HAVE_PYTHON=1

check_json() {
  # Validate report shape: version, expected job count, every job feasible
  # with non-negative metrics.
  [ "$HAVE_PYTHON" = 1 ] || return 0
  python3 - "$1" "$2" << 'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
want_jobs = int(sys.argv[2])
assert report["ldiv_report_version"] == 1, "bad report version"
assert report["job_count"] == want_jobs, f"expected {want_jobs} jobs, got {report['job_count']}"
assert len(report["jobs"]) == want_jobs
for job in report["jobs"]:
    for key in ("algorithm", "methodology", "l", "feasible", "stars",
                "suppressed_tuples", "groups", "kl_divergence"):
        assert key in job, f"job {job.get('job')} is missing '{key}'"
    assert job["feasible"], f"job {job['job']} ({job['algorithm']}) infeasible"
    assert job["stars"] >= 0 and job["groups"] > 0
EOF
}

if [ "$ONLY" != "threads" ]; then

echo "== single runs: every registered algorithm =="
for algo in tp tp+ hilbert mondrian anatomy tds; do
  "$BIN" --algo="$algo" --l=2 --input="$INPUT" --schema="$SCHEMA" \
    --out="$TMP/$algo" 2> /dev/null
  [ -s "$TMP/$algo.csv" ] || { echo "FAIL: $algo wrote no release"; exit 1; }
  [ -s "$TMP/$algo.json" ] || { echo "FAIL: $algo wrote no JSON report"; exit 1; }
  [ -s "$TMP/${algo}_metrics.csv" ] || { echo "FAIL: $algo wrote no metrics CSV"; exit 1; }
  check_json "$TMP/$algo.json" 1
  echo "ok: $algo"
done
[ -s "$TMP/anatomy_sa.csv" ] || { echo "FAIL: anatomy wrote no sensitive table"; exit 1; }

echo "== raw string CSV: dictionary ingestion through every algorithm =="
RAW_INPUT="$SRC/tests/data/micro_raw.csv"
for algo in tp tp+ hilbert mondrian anatomy tds; do
  "$BIN" --algo="$algo" --l=2 --input="$RAW_INPUT" --format=raw \
    --out="$TMP/raw_$algo" 2> /dev/null
  [ -s "$TMP/raw_$algo.csv" ] || { echo "FAIL: raw $algo wrote no release"; exit 1; }
  grep -q "flu" "$TMP/raw_$algo.csv" "$TMP/raw_${algo}_sa.csv" 2> /dev/null ||
    { echo "FAIL: raw $algo release holds no decoded labels"; exit 1; }
  [ -s "$TMP/raw_${algo}_dict.csv" ] ||
    { echo "FAIL: raw $algo wrote no dictionary sidecar"; exit 1; }
  grep -q "^City,0," "$TMP/raw_${algo}_dict.csv" ||
    { echo "FAIL: raw $algo dictionary sidecar is malformed"; exit 1; }
  check_json "$TMP/raw_$algo.json" 1
  echo "ok: raw $algo"
done
# Format auto-detection: a string-valued file loads without --schema or
# --format, and the release decodes to the same labels.
"$BIN" --algo=mondrian --l=2 --input="$RAW_INPUT" --out="$TMP/raw_auto" 2> /dev/null
grep -q "flu" "$TMP/raw_auto.csv" || { echo "FAIL: auto-detected raw release"; exit 1; }

echo "== usage errors exit with the documented codes, never an abort =="
expect_exit() {
  local want=$1
  shift
  local got=0
  "$@" > /dev/null 2>&1 || got=$?
  [ "$got" -eq "$want" ] ||
    { echo "FAIL: expected exit $want, got $got for: $*"; exit 1; }
}
expect_exit 1 "$BIN" --algo=bogus --out="$TMP/x"
expect_exit 1 "$BIN" --input="$INPUT" --out="$TMP/x"
expect_exit 1 "$BIN" --dataset=bogus --out="$TMP/x"
expect_exit 1 "$BIN" --d=9 --out="$TMP/x"
expect_exit 1 "$BIN" --input="$INPUT" --format=parquet --out="$TMP/x"
expect_exit 1 "$BIN" --input="$RAW_INPUT" --format=raw --schema="$SCHEMA" --out="$TMP/x"
# Structured CSV errors surface as one-line messages with positions.
printf 'Age,Gender,Race,Income\n1,0,notanumber,0\n' > "$TMP/bad.csv"
expect_exit 3 "$BIN" --input="$TMP/bad.csv" --schema="$SCHEMA" --out="$TMP/x"
ERRMSG=$("$BIN" --input="$TMP/bad.csv" --schema="$SCHEMA" --out="$TMP/x" 2>&1 || true)
echo "$ERRMSG" | grep -q "bad.csv:2: column 3" ||
  { echo "FAIL: CSV parse error lost its line/column position: $ERRMSG"; exit 1; }
expect_exit 2 "$BIN" --algo=tp --l=100000 --input="$INPUT" --schema="$SCHEMA" --out="$TMP/x"
expect_exit 3 "$BIN" --input="$TMP/no_such_file.csv" --schema="$SCHEMA" --out="$TMP/x"
expect_exit 1 "$BIN" --threads=lots --out="$TMP/x"
# Retired flags are unknown flags: the artifact cache's own size, and the
# switch that sent one job through the batch driver (every run takes it).
for retired in artifact-cache sweep; do
  expect_exit 1 "$BIN" --algo=tp "--$retired" --out="$TMP/x"
  ERRMSG=$("$BIN" --algo=tp "--$retired" --out="$TMP/x" 2>&1 || true)
  echo "$ERRMSG" | grep -q "unknown flag --$retired" ||
    { echo "FAIL: --$retired is not reported as an unknown flag: $ERRMSG"; exit 1; }
done
# A schema past the kernels' 64-bit packing is a usage error, not an
# abort: ten QIs of domain 100 overflow the KL estimate's packed point
# ids (and TDS's cell ids); TP without KL needs neither and still runs.
WIDE_SCHEMA="$(printf '100,%.0s' $(seq 1 9))100|4"
awk 'BEGIN {
  for (a = 1; a <= 10; a++) printf "Q%d,", a
  print "S"
  for (r = 0; r < 400; r++) {
    for (a = 0; a < 10; a++) printf "%d,", (r * 7 + a) % 100
    print r % 4
  }
}' > "$TMP/wide.csv"
for algo in tp tds; do
  expect_exit 1 "$BIN" --algo="$algo" --input="$TMP/wide.csv" --schema="$WIDE_SCHEMA" \
    --out="$TMP/x"
done
expect_exit 0 "$BIN" --algo=tp --kl=false --input="$TMP/wide.csv" --schema="$WIDE_SCHEMA" \
  --out="$TMP/x"

echo "== memory budget: out-of-core runs are byte-identical =="
# Malformed sizes and sub-floor budgets are usage errors, caught up front.
expect_exit 1 "$BIN" --memory-budget=bogus --out="$TMP/x"
expect_exit 1 "$BIN" --memory-budget=1M --out="$TMP/x"
# The micro CSV fits its budget, so it stays on the in-RAM readers (and
# caches normally); the big synthetic run below is what goes paged.
"$BIN" --algo=all --l=2 --input="$INPUT" --schema="$SCHEMA" \
  --write-releases --no-timings --out="$TMP/csvref" 2> /dev/null
LDIV_PAGE_BYTES=4096 "$BIN" --algo=all --l=2 --input="$INPUT" --schema="$SCHEMA" \
  --write-releases --no-timings --memory-budget=8M \
  --out="$TMP/csvbud" 2> /dev/null
# Synthetic table big enough that the 8M budget cannot hold the grouping
# scratch (32n = 12.8M): the GroupedTable build streams through the
# external sorter and ingestion goes through paged columns.
"$BIN" --algo=all --l=4 --n=400000 --d=3 --write-releases \
  --no-timings --out="$TMP/bigref" 2> /dev/null
LDIV_PAGE_BYTES=4096 "$BIN" --algo=all --l=4 --n=400000 --d=3 \
  --write-releases --no-timings --memory-budget=8M \
  --out="$TMP/bigbud" 2> /dev/null
for pair in "csvref csvbud" "bigref bigbud"; do
  set -- $pair
  check_json "$TMP/$1.json" 6
  cmp "$TMP/$1.json" "$TMP/$2.json" ||
    { echo "FAIL: report depends on --memory-budget ($1)"; exit 1; }
  cmp "$TMP/$1_metrics.csv" "$TMP/$2_metrics.csv" ||
    { echo "FAIL: metrics depend on --memory-budget ($1)"; exit 1; }
  for k in $(seq 0 5); do
    cmp "$TMP/$1.job$k.csv" "$TMP/$2.job$k.csv" ||
      { echo "FAIL: release job$k depends on --memory-budget ($1)"; exit 1; }
    if [ -f "$TMP/$1.job${k}_sa.csv" ]; then
      cmp "$TMP/$1.job${k}_sa.csv" "$TMP/$2.job${k}_sa.csv" ||
        { echo "FAIL: sensitive table job$k depends on --memory-budget ($1)"; exit 1; }
    fi
  done
  echo "ok: $1 == $2"
done
# A bad code fails a paged load exactly as it fails an in-RAM one: exit 3
# and the parser's "FILE:LINE: column C: ..." line. At ~1.4 MB the CSV's
# in-RAM estimate (2x its size) is over a quarter of 8M, so it pages; an
# armed spill.create proves that the budgeted run takes the paged loader.
awk 'BEGIN {
  print "Age,Gender,Race,Income"
  for (r = 0; r < 145000; r++) {
    printf "%d,%d,%d,%d\n", r % 79, r % 2, (r == 100000 ? 9 : r % 9), r % 50
  }
}' > "$TMP/badcode.csv"
BAD_LINE="badcode.csv:100002: column 3: value 9 is outside the domain [0, 9) of attribute 'Race'"
for budget in 0 8M; do
  got=0
  "$BIN" --algo=tp --l=2 --input="$TMP/badcode.csv" --schema="$SCHEMA" \
    --memory-budget="$budget" --out="$TMP/x" > /dev/null 2> "$TMP/badcode_$budget.err" || got=$?
  [ "$got" -eq 3 ] && grep -qF "$BAD_LINE" "$TMP/badcode_$budget.err" ||
    { echo "FAIL: bad code at budget $budget: exit $got"; cat "$TMP/badcode_$budget.err"; exit 1; }
done
LDIV_FAILPOINT=spill.create=ENOSPC "$BIN" --algo=tp --l=2 --input="$TMP/badcode.csv" \
  --schema="$SCHEMA" --memory-budget=8M --out="$TMP/x" > /dev/null 2> "$TMP/badcode.err" || true
grep -q "failpoint spill.create" "$TMP/badcode.err" ||
  { echo "FAIL: the 8M bad-code run did not page"; cat "$TMP/badcode.err"; exit 1; }
echo "ok: a paged bad code fails like an in-RAM one"

fi  # LDIV_E2E_ONLY != threads

echo "== sweep: 12-job grid, deterministic across thread budgets =="
# All six algorithms x l in {2,4}, with per-job releases, at --threads=1,
# 2 and 4: the --no-timings reports and every release (including the
# Anatomy sensitive tables) must be byte-identical -- the thread budget
# feeds both the batch workers and the in-kernel parallelism, and neither
# may leak into any output.
for threads in 1 2 4; do
  "$BIN" --algo=all --l=2,4 --input="$INPUT" --schema="$SCHEMA" \
    --write-releases --threads="$threads" --no-timings \
    --out="$TMP/sweep$threads" 2> /dev/null
  check_json "$TMP/sweep$threads.json" 12
done
for threads in 2 4; do
  cmp "$TMP/sweep1.json" "$TMP/sweep$threads.json" ||
    { echo "FAIL: sweep JSON depends on --threads=$threads"; exit 1; }
  cmp "$TMP/sweep1_metrics.csv" "$TMP/sweep${threads}_metrics.csv" ||
    { echo "FAIL: sweep metrics depend on --threads=$threads"; exit 1; }
  for k in $(seq 0 11); do
    cmp "$TMP/sweep1.job$k.csv" "$TMP/sweep$threads.job$k.csv" ||
      { echo "FAIL: release job$k depends on --threads=$threads"; exit 1; }
    if [ -f "$TMP/sweep1.job${k}_sa.csv" ]; then
      cmp "$TMP/sweep1.job${k}_sa.csv" "$TMP/sweep$threads.job${k}_sa.csv" ||
        { echo "FAIL: sensitive table job$k depends on --threads=$threads"; exit 1; }
    fi
  done
done
# The thread budget is an execution detail: it may only surface next to
# the wall-clock fields, never in --no-timings output.
grep -q '"threads"' "$TMP/sweep1.json" &&
  { echo "FAIL: --no-timings report records the thread budget"; exit 1; }
"$BIN" --algo=mondrian --l=2 --input="$INPUT" --schema="$SCHEMA" \
  --threads=2 --out="$TMP/timed" 2> /dev/null
grep -q '"threads": 2' "$TMP/timed.json" ||
  { echo "FAIL: timed report does not record the thread budget"; exit 1; }

echo "ldiv e2e: all checks passed"
