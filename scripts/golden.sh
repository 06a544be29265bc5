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
GOLDEN="$ROOT/tests/golden/quick.sha256"
MODES="raw reliable-queue commguard replicate abft"

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
ACTUAL="$WORK/actual.sha256"
: > "$ACTUAL"

digest() { sha256sum "$1" | cut -d' ' -f1; }

# Scenario names whose tag list does not contain `micro`; the human
# listing prints `<name>  [<tag>,<tag>] <description>`.
SCENARIOS=$("$CG_BENCH" list |
    awk '$2 ~ /^\[/ && $2 !~ /[[,]micro[],]/ { print $1 }')

for NAME in $SCENARIOS; do
    DIR="$WORK/run_$NAME"
    mkdir -p "$DIR"
    (cd "$DIR" && CG_QUICK=1 CG_JOBS=4 CG_JSONL="$DIR/$NAME.jsonl" \
        "$CG_BENCH" run "$NAME" > "$DIR/stdout" 2> "$DIR/stderr") || {
        echo "golden.sh: cg_bench run $NAME failed" >&2
        cat "$DIR/stderr" >&2
        exit 1
    }
    echo "$(digest "$DIR/stdout")  run/$NAME.stdout" >> "$ACTUAL"
    if [ -f "$DIR/$NAME.jsonl" ]; then
        echo "$(digest "$DIR/$NAME.jsonl")  run/$NAME.jsonl" >> "$ACTUAL"
    fi
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

if [ "$UPDATE" -eq 1 ]; then
    mkdir -p "$(dirname "$GOLDEN")"
    cp "$ACTUAL" "$GOLDEN"
    echo "golden.sh: wrote $(wc -l < "$GOLDEN") digests to" \
         "tests/golden/quick.sha256"
    exit 0
fi

if [ ! -f "$GOLDEN" ]; then
    echo "golden.sh: missing tests/golden/quick.sha256 (run with" \
         "--update)" >&2
    exit 1
fi
if ! diff -u "$GOLDEN" "$ACTUAL" > "$WORK/diff"; then
    echo "golden.sh: outputs differ from tests/golden/quick.sha256:" >&2
    grep '^[-+][^-+]' "$WORK/diff" >&2
    exit 1
fi
echo "golden.sh: golden outputs ok ($(wc -l < "$GOLDEN") digests)"
