#!/usr/bin/env bash
# One-stop local gate: configure, build (warnings are the default
# -Wall -Wextra from the top-level CMakeLists), run the tier-1 test
# suite, validate the per-run JSONL export schema and the scenario
# catalogue, run the full scenario sweep in quick mode (and gate on
# the sweep engine's jobs=4 speedup, core-aware), compare every
# non-micro scenario's quick output and every mode's serve-run stream
# against the committed golden digests (scripts/golden.sh), run one traced
# quick sweep to validate the Perfetto trace export and the per-run
# forensics records (docs/TRACING.md), run a quick budget of the
# deterministic stress-fuzz harness including its failure path
# (docs/FUZZING.md), and run the protection-backend gate: a quick
# pareto_protection sweep whose JSONL records and BENCH document must
# validate and cover every built-in protection mode (DESIGN.md §4b),
# the result-cache gate: cold, warm and rebuilt-binary reruns
# byte-identical to an uncached run (docs/RESULT_CACHE.md), and the
# service gate: serve-run byte-stable across invocations and job
# counts with a schema-valid stream (docs/SERVICE.md), the schema-check
# negative gate: every jsonl_check mode rejects an artifact whose
# version is a string with exit 1, and the benchmark gate: perfbench's
# regenerated run digests match perfbench/ref and every workload's
# traced self-check reports correct (perfbench/README.md).
#
# Usage: scripts/check.sh [--sanitize] [build-dir]   (default: build)
#
# --sanitize appends the sanitizer stage: tier-1 + quick fuzz under
# ASan/UBSan (preset asan), and the sweep-determinism / thread-pool /
# fuzz tests under TSan (preset tsan). Slow — both presets rebuild the
# tree instrumented.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZE=0
BUILD_DIR=build
for arg in "$@"; do
    case "$arg" in
        --sanitize) SANITIZE=1 ;;
        *) BUILD_DIR="$arg" ;;
    esac
done

cmake -S . -B "$BUILD_DIR"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure
cmake --build "$BUILD_DIR" --target schema_check

CG_BENCH="$BUILD_DIR/tools/cg_bench"
CG_FUZZ="$BUILD_DIR/tools/cg_fuzz"
JSONL_CHECK="$BUILD_DIR/tools/jsonl_check"

# Scenario catalogue: the machine-readable listing must carry names,
# descriptions, paper references and tags for every scenario, sorted
# and unique.
"$CG_BENCH" list --json > "$BUILD_DIR/scenario_list.json"
"$JSONL_CHECK" --scenarios "$BUILD_DIR/scenario_list.json"

# Every registered scenario must run end to end in quick mode.
(cd "$BUILD_DIR" && CG_QUICK=1 "tools/cg_bench" run --all)

# Golden-output gate: quick stdout and JSONL of every non-micro
# scenario, and serve-run in every protection mode, must match the
# committed digests in tests/golden/quick.sha256 byte for byte.
scripts/golden.sh "$BUILD_DIR"

# Sweep-scaling gate: the quick run above wrote BENCH_sweep.json
# (micro_sweep_throughput) into $BUILD_DIR with the jobs=1,2,4,8
# speedup curve. The floor is core-aware: a host with >= 4 CPUs must
# show real scaling at jobs=4; with fewer CPUs the hardware cannot
# express a parallel speedup, so the bound degrades to a sanity check
# that the batch path does not regress sequential throughput.
SWEEP_JSON="$BUILD_DIR/BENCH_sweep.json"
if [ ! -s "$SWEEP_JSON" ]; then
    echo "check.sh: missing $SWEEP_JSON (micro_sweep_throughput)" >&2
    exit 1
fi
SPEEDUP4=$(grep -o '"speedup_jobs4":[0-9.eE+-]*' "$SWEEP_JSON" | cut -d: -f2)
HOST_CPUS=$(grep -o '"host_cpus":[0-9]*' "$SWEEP_JSON" | cut -d: -f2)
if [ -z "$SPEEDUP4" ] || [ -z "$HOST_CPUS" ]; then
    echo "check.sh: BENCH_sweep.json lacks speedup_jobs4/host_cpus" >&2
    exit 1
fi
if [ "$HOST_CPUS" -ge 4 ]; then
    MIN_SPEEDUP=1.5
elif [ "$HOST_CPUS" -ge 2 ]; then
    MIN_SPEEDUP=1.0
else
    MIN_SPEEDUP=0.7
fi
if ! awk -v s="$SPEEDUP4" -v m="$MIN_SPEEDUP" 'BEGIN { exit !(s >= m) }'; then
    echo "check.sh: sweep jobs=4 speedup $SPEEDUP4 is below the" \
         "$MIN_SPEEDUP floor for a ${HOST_CPUS}-cpu host" >&2
    exit 1
fi
echo "check.sh: sweep scaling gate ok (jobs=4 speedup $SPEEDUP4," \
     "$HOST_CPUS cpus, floor $MIN_SPEEDUP)"

# Traced quick sweep: every run must emit a valid Perfetto trace file
# whose event stream tallies against the exact sidecar counts, and a
# JSONL record with a forensics section and zero conservation errors.
TRACE_DIR="$BUILD_DIR/trace_check"
TRACE_JSONL="$BUILD_DIR/trace_check_runs.jsonl"
rm -rf "$TRACE_DIR" "$TRACE_JSONL"
CG_QUICK=1 CG_TRACE_EVENTS=1 CG_TRACE_OUT="$TRACE_DIR" \
    CG_JSONL="$TRACE_JSONL" "$CG_BENCH" run fig08_data_loss
"$JSONL_CHECK" --forensics "$TRACE_JSONL"
"$JSONL_CHECK" --trace "$TRACE_DIR"/*.json

# Stress-fuzz, clean path: a quick seeded budget must hold every
# harness invariant (CG_FUZZ_BUDGET caps the wall clock).
CG_FUZZ_BUDGET="${CG_FUZZ_BUDGET:-10}" "$CG_FUZZ" run --seed=1

# Stress-fuzz, failure path: a deliberately broken invariant must be
# caught, shrunk, written as a valid repro bundle, and reproduced by
# `cg_fuzz replay` with its documented exit code.
BUNDLE="$BUILD_DIR/fuzz_check_bundle.json"
rm -f "$BUNDLE"
if "$CG_FUZZ" run --cases=1 --break=counter --out="$BUNDLE"; then
    echo "check.sh: cg_fuzz missed a deliberately broken invariant" >&2
    exit 1
fi
test -s "$BUNDLE"
"$JSONL_CHECK" --repro "$BUNDLE"
set +e
"$CG_FUZZ" replay "$BUNDLE"; FUZZ_REPLAY=$?
set -e
if [ "$FUZZ_REPLAY" -ne 1 ]; then
    echo "check.sh: repro bundle did not reproduce (cg_fuzz replay" \
         "exited $FUZZ_REPLAY, expected 1)" >&2
    exit 1
fi

# Protection-backend gate: the pareto_protection scenario must sweep
# every registered backend in quick mode, its per-run JSONL records
# must validate (protection_mode vocabulary comes from the registry),
# its BENCH document must be schema-valid, and every built-in mode
# must appear in the emitted rows.
PARETO_JSONL="$BUILD_DIR/pareto_check_runs.jsonl"
PARETO_BENCH="$BUILD_DIR/BENCH_pareto_protection.json"
rm -f "$PARETO_JSONL" "$PARETO_BENCH"
(cd "$BUILD_DIR" && CG_QUICK=1 CG_JSON=1 CG_JSONL="pareto_check_runs.jsonl" \
    "tools/cg_bench" run pareto_protection)
"$JSONL_CHECK" "$PARETO_JSONL"
"$JSONL_CHECK" --bench "$PARETO_BENCH"
for MODE in raw reliable-queue commguard replicate abft; do
    if ! grep -q "\"$MODE\"" "$PARETO_BENCH"; then
        echo "check.sh: pareto_protection rows are missing protection" \
             "mode '$MODE'" >&2
        exit 1
    fi
done
echo "check.sh: protection-backend gate ok (all registered modes swept)"

# Telemetry gate (docs/TELEMETRY.md): a quick traced+telemetry sweep
# must emit a schema-valid telemetry stream whose bytes are identical
# for CG_JOBS=1 and CG_JOBS=8 (run outcomes and export bytes never
# depend on host parallelism), plus a non-empty HTML run report next
# to the stream. Its CG_JOBS=1 trace files must equal the traced
# sweep's above (default CG_JOBS, telemetry off) name for name and
# byte for byte: trace bytes depend on neither.
TELEM_A="$BUILD_DIR/telemetry_a.jsonl"
TELEM_B="$BUILD_DIR/telemetry_b.jsonl"
TELEM_TRACE_DIR="$BUILD_DIR/telemetry_trace"
rm -rf "$TELEM_A" "$TELEM_A.html" "$TELEM_B" "$TELEM_B.html" \
    "$TELEM_TRACE_DIR"
CG_QUICK=1 CG_JOBS=1 CG_TELEMETRY_SLICES=16 CG_TELEMETRY_OUT="$TELEM_A" \
    CG_TRACE_EVENTS=1 CG_TRACE_OUT="$TELEM_TRACE_DIR" \
    "$CG_BENCH" run fig08_data_loss
CG_QUICK=1 CG_JOBS=8 CG_TELEMETRY_SLICES=16 CG_TELEMETRY_OUT="$TELEM_B" \
    "$CG_BENCH" run fig08_data_loss
"$JSONL_CHECK" --telemetry "$TELEM_A"
if ! cmp -s "$TELEM_A" "$TELEM_B"; then
    echo "check.sh: telemetry stream bytes depend on CG_JOBS" >&2
    exit 1
fi
for REPORT in "$TELEM_A.html" "$TELEM_B.html"; do
    if [ ! -s "$REPORT" ]; then
        echo "check.sh: missing or empty telemetry report $REPORT" >&2
        exit 1
    fi
done
if [ "$(ls "$TELEM_TRACE_DIR")" != "$(ls "$TRACE_DIR")" ]; then
    echo "check.sh: $TELEM_TRACE_DIR and $TRACE_DIR hold different" \
         "trace files" >&2
    exit 1
fi
for TRACE in "$TRACE_DIR"/*.json; do
    if ! cmp -s "$TRACE" "$TELEM_TRACE_DIR/$(basename "$TRACE")"; then
        echo "check.sh: trace $(basename "$TRACE") depends on CG_JOBS" \
             "or telemetry" >&2
        exit 1
    fi
done
rm -rf "$TELEM_TRACE_DIR"
echo "check.sh: telemetry gate ok (stream and traces byte-stable across" \
     "jobs, reports emitted)"

# Result-cache gate (docs/RESULT_CACHE.md): the same quick sweep run
# without a cache, against an empty CG_CACHE_DIR (cold) and against
# the populated one (warm) must emit byte-identical JSONL, and the
# warm rerun must replay without storing anything new. A copy of
# cg_bench with one byte appended is a different build: its rerun
# must miss every entry (the entry count doubles) and still reproduce
# the base bytes. The base JSONL and BENCH document must validate, and
# the --bench duplicate-run detector must catch a handcrafted
# double-counted table.
CACHE_BASE="$BUILD_DIR/cache_base.jsonl"
CACHE_COLD="$BUILD_DIR/cache_cold.jsonl"
CACHE_WARM="$BUILD_DIR/cache_warm.jsonl"
CACHE_STALE="$BUILD_DIR/cache_stale.jsonl"
CACHE_DIR="$BUILD_DIR/result_cache"
CACHE_BENCH="$BUILD_DIR/BENCH_fig08_data_loss.json"
STALE_BENCH="$BUILD_DIR/cg_bench_stale"
rm -rf "$CACHE_BASE" "$CACHE_COLD" "$CACHE_WARM" "$CACHE_STALE" \
    "$CACHE_DIR" "$CACHE_BENCH" "$STALE_BENCH"
cache_entries() { find "$CACHE_DIR" -name '*.json' | wc -l; }
(cd "$BUILD_DIR" && CG_QUICK=1 CG_JSON=1 CG_JSONL="cache_base.jsonl" \
    "tools/cg_bench" run fig08_data_loss)
"$JSONL_CHECK" "$CACHE_BASE"
"$JSONL_CHECK" --bench "$CACHE_BENCH"

(cd "$BUILD_DIR" && CG_QUICK=1 CG_CACHE_DIR="result_cache" \
    CG_JSONL="cache_cold.jsonl" "tools/cg_bench" run fig08_data_loss)
COLD_ENTRIES=$(cache_entries)
if [ "$COLD_ENTRIES" -eq 0 ]; then
    echo "check.sh: cold sweep left CG_CACHE_DIR empty" >&2
    exit 1
fi
(cd "$BUILD_DIR" && CG_QUICK=1 CG_CACHE_DIR="result_cache" \
    CG_JSONL="cache_warm.jsonl" "tools/cg_bench" run fig08_data_loss)
if [ "$(cache_entries)" -ne "$COLD_ENTRIES" ]; then
    echo "check.sh: warm cache rerun stored new entries instead of" \
         "replaying" >&2
    exit 1
fi
cp "$CG_BENCH" "$STALE_BENCH"
printf '\0' >> "$STALE_BENCH"
(cd "$BUILD_DIR" && CG_QUICK=1 CG_CACHE_DIR="result_cache" \
    CG_JSONL="cache_stale.jsonl" "./cg_bench_stale" run fig08_data_loss)
if [ "$(cache_entries)" -ne $((2 * COLD_ENTRIES)) ]; then
    echo "check.sh: a rebuilt cg_bench replayed cache entries of" \
         "another build ($(cache_entries) entries, expected" \
         "$((2 * COLD_ENTRIES)))" >&2
    exit 1
fi
for VARIANT in "$CACHE_COLD" "$CACHE_WARM" "$CACHE_STALE"; do
    if ! cmp -s "$CACHE_BASE" "$VARIANT"; then
        echo "check.sh: cached JSONL $VARIANT differs from the" \
             "uncached run" >&2
        exit 1
    fi
done

# Negative path: a table that double-counts a run configuration must
# be rejected.
DUP_BENCH="$BUILD_DIR/dup_bench.json"
printf '%s\n' '{"bench":"dup","data":{"headers":["app","mode","mtbe","seed"],"rows":[["jpeg","raw",1000,1],["jpeg","raw",1000,1]]},"schema_version":2}' \
    > "$DUP_BENCH"
if "$JSONL_CHECK" --bench "$DUP_BENCH" 2>/dev/null; then
    echo "check.sh: jsonl_check --bench missed a duplicated run" \
         "row" >&2
    exit 1
fi
echo "check.sh: cache gate ok (cold, warm and rebuilt-binary reruns" \
     "byte-identical, rebuilt binary missed every entry, duplicate" \
     "rows rejected)"

# Service gate (docs/SERVICE.md): the long-lived streaming driver must
# be bitwise deterministic — the same config yields identical JSONL and
# summary bytes across invocations and CG_JOBS settings — and its
# stream must validate against the service schema (meta first, exactly
# one summary, consecutive snapshots, monotone admission, typed
# errors_injected/repairs counts that reconcile with the deltas and the
# summary). A stream with the first snapshot's repairs, or the
# summary's, raised by 1 must be rejected, and a --seed that does not
# fit the seed derivation must be a usage error (exit 2), not a
# silently wrapped seed.
SERVICE_A="$BUILD_DIR/service_a.jsonl"
SERVICE_B="$BUILD_DIR/service_b.jsonl"
SERVICE_BAD="$BUILD_DIR/service_bad.jsonl"
rm -f "$SERVICE_A" "$SERVICE_A.summary" "$SERVICE_B" "$SERVICE_B.summary" \
    "$SERVICE_BAD"
"$CG_BENCH" serve-run --frames=4000 --mtbe=64000 --snapshot-frames=1000 \
    --degrade=1000:1:8 --remap=2000:1 --out="$SERVICE_A" \
    > "$SERVICE_A.summary"
CG_JOBS=8 "$CG_BENCH" serve-run --frames=4000 --mtbe=64000 \
    --snapshot-frames=1000 --degrade=1000:1:8 --remap=2000:1 \
    --out="$SERVICE_B" > "$SERVICE_B.summary"
if ! cmp -s "$SERVICE_A" "$SERVICE_B" || \
   ! cmp -s "$SERVICE_A.summary" "$SERVICE_B.summary"; then
    echo "check.sh: serve-run bytes differ across invocations/CG_JOBS" >&2
    exit 1
fi
"$JSONL_CHECK" --service "$SERVICE_A"
for RECORD in snapshot summary; do
    python3 -c 'import json, sys
lines = sys.stdin.read().splitlines()
i = next(n for n, line in enumerate(lines)
         if json.loads(line)["type"] == sys.argv[1])
record = json.loads(lines[i])
record["repairs"] += 1
lines[i] = json.dumps(record, separators=(",", ":"), sort_keys=True)
print("\n".join(lines))' "$RECORD" < "$SERVICE_A" > "$SERVICE_BAD"
    if "$JSONL_CHECK" --service "$SERVICE_BAD" > /dev/null 2>&1; then
        echo "check.sh: jsonl_check --service missed a $RECORD whose" \
             "repairs do not reconcile" >&2
        exit 1
    fi
done
set +e
"$CG_BENCH" serve-run --seed=4294967296 --frames=1 > /dev/null 2>&1
SEED_EXIT=$?
set -e
if [ "$SEED_EXIT" -ne 2 ]; then
    echo "check.sh: serve-run --seed=4294967296 exited $SEED_EXIT," \
         "expected 2 (out of range)" >&2
    exit 1
fi
echo "check.sh: service gate ok (serve-run byte-stable, stream valid," \
     "unreconciled repairs rejected, out-of-range seed rejected)"

# Schema-check negative gate: every jsonl_check mode must reject, with
# exit status 1 (not a crash), a copy of an artifact validated above
# whose version member (on the first line) is turned into a string.
BAD_VERSION="$BUILD_DIR/bad_version.json"
expect_version_rejected() {
    # $1 mode ("" for the default), $2 artifact, $3 dotted version key.
    python3 -c 'import json, sys
lines = open(sys.argv[1]).read().splitlines()
record = json.loads(lines[0])
*path, key = sys.argv[2].split(".")
node = record
for step in path:
    node = node[step]
node[key] = str(node[key])
lines[0] = json.dumps(record, separators=(",", ":"), sort_keys=True)
print("\n".join(lines))' "$2" "$3" > "$BAD_VERSION"
    set +e
    "$JSONL_CHECK" $1 "$BAD_VERSION" > /dev/null 2>&1
    local status=$?
    set -e
    if [ "$status" -ne 1 ]; then
        echo "check.sh: jsonl_check ${1:-(default mode)} exited $status" \
             "on $2 with a string $3, expected 1" >&2
        exit 1
    fi
}
expect_version_rejected "" "$PARETO_JSONL" schema_version
expect_version_rejected --forensics "$TRACE_JSONL" schema_version
expect_version_rejected --trace "$(ls -S "$TRACE_DIR"/*.json | tail -n 1)" \
    commguard.schema_version
expect_version_rejected --scenarios "$BUILD_DIR/scenario_list.json" \
    schema_version
expect_version_rejected --repro "$BUNDLE" schema_version
expect_version_rejected --bench "$PARETO_BENCH" schema_version
expect_version_rejected --telemetry "$TELEM_A" telemetry_schema_version
expect_version_rejected --service "$SERVICE_A" service_schema_version
rm -f "$BAD_VERSION"
echo "check.sh: schema-check negative gate ok (a string version is" \
     "rejected with exit 1 in every jsonl_check mode)"

# Benchmark gate (perfbench/README.md): build the repository benchmark
# in Release, regenerate the digest of every selectable run of each
# BENCHMARK.json workload into $BUILD_DIR/perfbench_check, and require
# each one to match perfbench/ref/<workload>.txt. The comparison is by key:
# a committed file may hold more keys than its workload now selects.
# Then each workload's traced run must report correct, which covers
# its workload-purpose self-check. Nothing is written under perfbench/.
PERFBENCH_BUILD="$BUILD_DIR/perfbench"
PERFBENCH_TMP="$BUILD_DIR/perfbench_check"
PERFBENCH="$PERFBENCH_BUILD/perfbench"
rm -rf "$PERFBENCH_TMP"
mkdir -p "$PERFBENCH_TMP"
cmake -S perfbench -B "$PERFBENCH_BUILD" -DCMAKE_BUILD_TYPE=Release
cmake --build "$PERFBENCH_BUILD" -j "$(nproc)" --target perfbench
WORKLOADS=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(sys.stdin)["workloads"]))' \
    < BENCHMARK.json)
for WORKLOAD in $WORKLOADS; do
    "$PERFBENCH" --regenerate --workload "$WORKLOAD" \
        --refs "$PERFBENCH_TMP" --out "$PERFBENCH_TMP/out"
    test -s "$PERFBENCH_TMP/$WORKLOAD.txt"
    if ! awk 'NR == FNR { ref[$1] = $2; next }
              !($1 in ref) || ref[$1] != $2 { print "  " $0; bad = 1 }
              END { exit bad }' \
            "perfbench/ref/$WORKLOAD.txt" "$PERFBENCH_TMP/$WORKLOAD.txt"
    then
        echo "check.sh: perfbench $WORKLOAD runs above do not match" \
             "perfbench/ref/$WORKLOAD.txt" >&2
        exit 1
    fi
    "$PERFBENCH" --workload "$WORKLOAD" --seed 1 --seconds 1 --trace 1 \
        --refs perfbench/ref --out "$PERFBENCH_TMP/out" \
        > "$PERFBENCH_TMP/$WORKLOAD.trace"
    if ! python3 -c 'import json, sys
report = json.loads(sys.stdin.read().splitlines()[-1])
sys.exit(not (report["correct"] is True and report["failed"] == 0))' \
            < "$PERFBENCH_TMP/$WORKLOAD.trace"; then
        echo "check.sh: perfbench $WORKLOAD traced run is not correct" \
             "($PERFBENCH_TMP/$WORKLOAD.trace)" >&2
        exit 1
    fi
done
echo "check.sh: benchmark gate ok (digests match perfbench/ref," \
     "traced self-checks correct for: $WORKLOADS)"

if [ "$SANITIZE" -eq 1 ]; then
    # ASan/UBSan: the tier-1 suite plus a quick fuzz budget, with
    # every error fatal (-fno-sanitize-recover=all at build time).
    cmake --preset asan
    cmake --build --preset asan -j "$(nproc)"
    ctest --preset tier1-asan
    CG_FUZZ_BUDGET=5 ./build-asan/tools/cg_fuzz run --seed=1

    # Service soak under ASan (docs/SERVICE.md): >= 1M frames streamed
    # through a mid-run MTBE degradation and a live remap. The
    # scenario's own fatal gates cover liveness, the admission-bounded
    # backlog and repair activity; on top of that, peak host RSS
    # (VmHWM, polled while the soak runs) must stay under a fixed
    # ceiling — a leak that grows with the frame count cannot hide in
    # a long-lived service.
    SOAK_RSS_CEILING_KB=$((3 * 1024 * 1024))
    ./build-asan/tools/cg_bench run service_soak &
    SOAK_PID=$!
    SOAK_PEAK_KB=0
    while kill -0 "$SOAK_PID" 2>/dev/null; do
        HWM=$(awk '/VmHWM/ {print $2}' "/proc/$SOAK_PID/status" \
              2>/dev/null || true)
        [ -n "${HWM:-}" ] && SOAK_PEAK_KB=$HWM
        sleep 0.2
    done
    wait "$SOAK_PID"
    if [ "$SOAK_PEAK_KB" -gt "$SOAK_RSS_CEILING_KB" ]; then
        echo "check.sh: service_soak peak RSS ${SOAK_PEAK_KB}kB" \
             "exceeds the ${SOAK_RSS_CEILING_KB}kB ceiling" >&2
        exit 1
    fi
    echo "check.sh: service soak gate ok (1M frames, peak RSS" \
         "${SOAK_PEAK_KB}kB)"

    # TSan: the concurrency surface — sweep determinism, the thread
    # pool (including the exception path), the fuzz harness's own
    # jobs=1-vs-jobs=N comparison — plus a quick fuzz budget.
    cmake --preset tsan
    cmake --build --preset tsan -j "$(nproc)"
    ctest --test-dir build-tsan --output-on-failure \
        -R 'SweepRunner|ThreadPool|Fuzz'
    CG_FUZZ_BUDGET=5 ./build-tsan/tools/cg_fuzz run --seed=1
fi

echo "check.sh: all gates passed"
