#!/usr/bin/env bash
# Byte-identical stdout check against a base revision, with the wall
# time of every experiment binary on both sides, plus the perfbench
# simulation digests.
#
# Exports <base-rev> with `git archive` into target/ (built with its own
# target dir) and builds the working tree alongside it, then runs every
# binary named in crates/bench/src/bin/*.rs and every examples/*.rs
# binary (all but the `lib` library) at default args with SOS_THREADS=2
# on both sides and compares stdout and exit status.
# Prints one line per binary — `same` or `DIFF`, each with both sides'
# wall seconds — and, under a `DIFF`, the first differing line.
#
# Then runs both sides' `sos-lint` over the exported base tree, once
# per output format (text, `--format json`), with the tree's path
# replaced by `<root>`, and prints one `same` or `DIFF` line per format
# comparing stdout and exit status.
#
# Then builds and runs each side's perfbench with the command line in
# BENCHMARK.json (the base with its own target dir) at
# `--workload all --seed 7 --seconds 10 --trace 0`, and prints one
# `same` or `DIFF` line per BENCHMARK.json workload comparing the two
# `sim_digest`s.
#
# Usage: scripts/stdout_identity.sh <base-rev>
#
# Exit 0: every binary, both sos-lint formats and every digest match. Exit 1: at least one
# `DIFF` (everything still runs). Exit 2: usage error.
# Takes about 20 minutes on 2 cores. Deliberately not a CI gate: a bug
# fix may legitimately change stdout.
set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: $0 <base-rev>" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
root="$(pwd)"
if ! base="$(git rev-parse --verify --quiet "$1^{commit}")"; then
    echo "stdout_identity: unknown revision '$1'" >&2
    exit 2
fi

scratch="$root/target/stdout-identity"
base_src="$scratch/base"
base_target="$scratch/target"
work_target="${CARGO_TARGET_DIR:-$root/target}"

trap 'rm -rf "$base_src"' EXIT

rm -rf "$base_src"
mkdir -p "$scratch/out" "$base_src"
git archive "$base" | tar -x -C "$base_src"

echo "==> building base ${base:0:12}"
(cd "$base_src" && CARGO_TARGET_DIR="$base_target" cargo build --release --offline -q -p sos-bench -p sos-analyze -p sos-examples --bins)
echo "==> building working tree"
cargo build --release --offline -q -p sos-bench -p sos-analyze -p sos-examples --bins

# Runs one binary, writing stdout to $3, and prints "<exit status>
# <wall seconds>" (stderr carries wall-clock diagnostics, so it is not
# compared).
run_bin() {
    local exe="$1" name="$2" out="$3" status=0 start
    if [[ ! -x "$exe" ]]; then
        echo "<missing binary $name>" >"$out"
        echo "missing -"
        return
    fi
    start="$EPOCHREALTIME"
    SOS_THREADS=2 "$exe" >"$out" 2>/dev/null || status=$?
    echo "$status $(awk -v a="$start" -v b="$EPOCHREALTIME" 'BEGIN { printf "%.1f", b - a }')"
}

count=0
differed=0
for src in crates/bench/src/bin/*.rs examples/*.rs; do
    [[ "$src" == examples/lib.rs ]] && continue
    name="$(basename "$src" .rs)"
    base_out="$scratch/out/$name.base"
    work_out="$scratch/out/$name.work"
    read -r base_status base_secs < <(run_bin "$base_target/release/$name" "$name" "$base_out")
    read -r work_status work_secs < <(run_bin "$work_target/release/$name" "$name" "$work_out")
    count=$((count + 1))
    timing="base ${base_secs} s, work ${work_secs} s"
    line=""
    problems=""
    if ! cmp -s "$base_out" "$work_out"; then
        # cmp exits 1 on a difference; keep set -e/pipefail from firing.
        line="$(cmp "$base_out" "$work_out" 2>&1 | sed -n 's/.* line \([0-9]*\).*/\1/p' || true)"
        line="${line:-1}"
        problems="stdout differs at line $line"
    fi
    if [[ "$base_status" != "$work_status" ]]; then
        problems="${problems:+$problems; }exit status $base_status (base) vs $work_status (work)"
    fi
    if [[ -z "$problems" ]]; then
        echo "same $name (exit $work_status; $timing)"
        continue
    fi
    differed=$((differed + 1))
    echo "DIFF $name: $problems ($timing)"
    if [[ -n "$line" ]]; then
        echo "  base: $(sed -n "${line}p" "$base_out")"
        echo "  work: $(sed -n "${line}p" "$work_out")"
    fi
done

# Runs one side's sos-lint over the base tree in format $2, writing its
# stdout (tree path replaced by <root>) and then its exit status to $3.
run_lint() {
    local exe="$1" format="$2" out="$3" status=0
    "$exe" "$base_src" --format "$format" >"$out.raw" 2>/dev/null || status=$?
    sed "s|$base_src|<root>|g" "$out.raw" >"$out"
    echo "exit $status" >>"$out"
}

lint_differed=0
for format in text json; do
    base_out="$scratch/out/sos-lint-$format.base"
    work_out="$scratch/out/sos-lint-$format.work"
    run_lint "$base_target/release/sos-lint" "$format" "$base_out"
    run_lint "$work_target/release/sos-lint" "$format" "$work_out"
    if cmp -s "$base_out" "$work_out"; then
        echo "same sos-lint --format $format ($(tail -n 1 "$work_out"))"
    else
        lint_differed=$((lint_differed + 1))
        echo "DIFF sos-lint --format $format:"
        diff "$base_out" "$work_out" | head -n 6 || true
    fi
done

# Prints "<workload> <sim_digest>" for each record line of one side's
# perfbench run; a failed build or run prints nothing, which the
# comparison reports as a missing digest.
perfbench_digests() {
    local src="$1" target="$2"
    (cd "$src" && CARGO_TARGET_DIR="$target" cargo run --release --offline --quiet \
        --manifest-path perfbench/Cargo.toml -- \
        --workload all --seed 7 --seconds 10 --trace 0 2>/dev/null || true) |
        sed -n 's/.*"record": {"workload": "\([a-z_]*\)".*"sim_digest": "\([0-9a-f]*\)".*/\1 \2/p'
}

echo "==> perfbench --workload all --seed 7 --seconds 10 --trace 0, base then working tree"
base_digests="$(perfbench_digests "$base_src" "$scratch/perfbench-target")"
work_digests="$(perfbench_digests "$root" "$root/perfbench/target")"
digests=0
digests_differed=0
for workload in $(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' BENCHMARK.json); do
    base_digest="$(awk -v w="$workload" '$1 == w { print $2 }' <<<"$base_digests")"
    work_digest="$(awk -v w="$workload" '$1 == w { print $2 }' <<<"$work_digests")"
    digests=$((digests + 1))
    if [[ -n "$work_digest" && "$base_digest" == "$work_digest" ]]; then
        echo "same perfbench $workload (sim_digest $work_digest)"
    else
        digests_differed=$((digests_differed + 1))
        echo "DIFF perfbench $workload: sim_digest ${base_digest:-<missing>} (base) vs ${work_digest:-<missing>} (work)"
    fi
done

if ((differed + lint_differed + digests_differed > 0)); then
    echo "stdout_identity: $differed of $count binaries, $lint_differed of 2 sos-lint formats and $digests_differed of $digests perfbench digests differ from ${base:0:12}"
    exit 1
fi
echo "stdout_identity: all $count binaries and both sos-lint formats byte-identical and all $digests perfbench digests unchanged vs ${base:0:12}"
