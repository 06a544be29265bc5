#!/usr/bin/env bash
# Golden-output gate: every figure output of the simulator must stay
# byte-identical unless a change means to move it.
#
# For each scenario not tagged `micro`, runs
#     CG_QUICK=1 CG_JOBS=4 CG_JSONL=<tmp>/<name>.jsonl cg_bench run <name>
# in a fresh temporary directory and records the sha256 of its stdout
# and, when the scenario writes one, of its per-run JSONL. For each
# protection mode it also records the sha256 of the JSONL stream and
# the stdout summary of one serve-run (plain, header and checksum
# source framing on the service path).
#
# Usage: scripts/golden.sh [--update] [build-dir]   (default: build)
#
# --update rewrites tests/golden/quick.sha256; the default compares
# against it, prints every entry that differs and exits 1 on any
# difference.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$(pwd)

UPDATE=0
BUILD_DIR=build
for arg in "$@"; do
    case "$arg" in
        --update) UPDATE=1 ;;
        *) BUILD_DIR="$arg" ;;
    esac
done

CG_BENCH=$(cd "$BUILD_DIR" && pwd)/tools/cg_bench
MODES="raw reliable-queue commguard replicate abft"

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
ACTUAL="$WORK/quick.sha256"
ACTUAL_FULL="$WORK/full.sha256"
: > "$ACTUAL"
: > "$ACTUAL_FULL"

digest() { sha256sum "$1" | cut -d' ' -f1; }

# Scenario names whose tag list does not contain `micro`; the human
# listing prints `<name>  [<tag>,<tag>] <description>`.
SCENARIOS=$("$CG_BENCH" list |
    awk '$2 ~ /^\[/ && $2 !~ /[[,]micro[],]/ { print $1 }')
FIGURES=$("$CG_BENCH" list |
    awk '$2 ~ /^\[/ && $2 ~ /[[,]figure[],]/ { print $1 }')

# run_scenario <mode> <name> <digest-file>: run one scenario in quick
# or full mode in its own directory and record its digests.
run_scenario() {
    local MODE=$1 NAME=$2 OUT=$3 QUICK=1
    local DIR="$WORK/${MODE}_$NAME"
    [ "$MODE" = full ] && QUICK=
    mkdir -p "$DIR"
    (cd "$DIR" && env -u CG_QUICK ${QUICK:+CG_QUICK=1} CG_JOBS=4 \
        CG_JSONL="$DIR/$NAME.jsonl" "$CG_BENCH" run "$NAME" \
        > "$DIR/stdout" 2> "$DIR/stderr") || {
        echo "golden.sh: $MODE cg_bench run $NAME failed" >&2
        cat "$DIR/stderr" >&2
        exit 1
    }
    local PREFIX=run
    [ "$MODE" = full ] && PREFIX=full
    echo "$(digest "$DIR/stdout")  $PREFIX/$NAME.stdout" >> "$OUT"
    if [ -f "$DIR/$NAME.jsonl" ]; then
        echo "$(digest "$DIR/$NAME.jsonl")  $PREFIX/$NAME.jsonl" >> "$OUT"
    fi
}

for NAME in $SCENARIOS; do
    run_scenario quick "$NAME" "$ACTUAL"
done

for MODE in $MODES; do
    DIR="$WORK/serve_$MODE"
    mkdir -p "$DIR"
    (cd "$DIR" && "$CG_BENCH" serve-run --mode="$MODE" --frames=4000 \
        --mtbe=64000 --snapshot-frames=1000 --degrade=1000:1:8 \
        --remap=2000:1 --out="$DIR/stream.jsonl" > "$DIR/summary" \
        2> "$DIR/stderr") || {
        echo "golden.sh: cg_bench serve-run --mode=$MODE failed" >&2
        cat "$DIR/stderr" >&2
        exit 1
    }
    echo "$(digest "$DIR/stream.jsonl")  serve/$MODE.jsonl" >> "$ACTUAL"
    echo "$(digest "$DIR/summary")  serve/$MODE.summary" >> "$ACTUAL"
done

for NAME in $FIGURES; do
    run_scenario full "$NAME" "$ACTUAL_FULL"
done

STATUS=0
for KIND in quick full; do
    GOLDEN="$ROOT/tests/golden/$KIND.sha256"
    if [ "$UPDATE" -eq 1 ]; then
        mkdir -p "$(dirname "$GOLDEN")"
        cp "$WORK/$KIND.sha256" "$GOLDEN"
        echo "golden.sh: wrote $(wc -l < "$GOLDEN") digests to" \
             "tests/golden/$KIND.sha256"
    elif [ ! -f "$GOLDEN" ]; then
        echo "golden.sh: missing tests/golden/$KIND.sha256 (run with" \
             "--update)" >&2
        STATUS=1
    elif ! diff -u "$GOLDEN" "$WORK/$KIND.sha256" > "$WORK/diff"; then
        echo "golden.sh: outputs differ from" \
             "tests/golden/$KIND.sha256:" >&2
        grep '^[-+][^-+]' "$WORK/diff" >&2
        STATUS=1
    else
        echo "golden.sh: $KIND golden outputs ok" \
             "($(wc -l < "$GOLDEN") digests)"
    fi
done
exit "$STATUS"
