#!/usr/bin/env bash
# Byte-identical stdout check against a base revision.
#
# Builds <base-rev> in a temporary git worktree under target/ (with its
# own target dir) and the working tree alongside it, then runs every
# binary named in crates/bench/src/bin/*.rs at default args with
# SOS_THREADS=2 on both sides and compares stdout and exit status.
#
# Usage: scripts/stdout_identity.sh <base-rev>
#
# Exit 0: every binary matches. Exit 1: a binary differs; the first
# differing binary and line are printed. Exit 2: usage error.
# Takes about 10 minutes on 2 cores. Deliberately not a CI gate: a bug
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
worktree="$scratch/base"
base_target="$scratch/target"
work_target="${CARGO_TARGET_DIR:-$root/target}"

remove_worktree() {
    if [[ -d "$worktree" ]]; then
        git worktree remove --force "$worktree"
    fi
    git worktree prune
}
trap remove_worktree EXIT

mkdir -p "$scratch/out"
remove_worktree
git worktree add --detach --quiet "$worktree" "$base"

echo "==> building base ${base:0:12}"
(cd "$worktree" && CARGO_TARGET_DIR="$base_target" cargo build --release --offline -q -p sos-bench --bins)
echo "==> building working tree"
cargo build --release --offline -q -p sos-bench --bins

# Runs one binary, writing stdout to $3 and returning its exit status
# on stdout (stderr carries wall-clock timings, so it is not compared).
run_bin() {
    local exe="$1" name="$2" out="$3" status=0
    if [[ ! -x "$exe" ]]; then
        echo "<missing binary $name>" >"$out"
        echo missing
        return
    fi
    SOS_THREADS=2 "$exe" >"$out" 2>/dev/null || status=$?
    echo "$status"
}

count=0
for src in crates/bench/src/bin/*.rs; do
    name="$(basename "$src" .rs)"
    base_out="$scratch/out/$name.base"
    work_out="$scratch/out/$name.work"
    base_status="$(run_bin "$base_target/release/$name" "$name" "$base_out")"
    work_status="$(run_bin "$work_target/release/$name" "$name" "$work_out")"
    if ! cmp -s "$base_out" "$work_out"; then
        # cmp exits 1 on a difference; keep set -e/pipefail from firing.
        line="$(cmp "$base_out" "$work_out" 2>&1 | sed -n 's/.* line \([0-9]*\).*/\1/p' || true)"
        line="${line:-1}"
        echo "DIFF $name: stdout differs at line $line"
        echo "  base: $(sed -n "${line}p" "$base_out")"
        echo "  work: $(sed -n "${line}p" "$work_out")"
        exit 1
    fi
    if [[ "$base_status" != "$work_status" ]]; then
        echo "DIFF $name: exit status $base_status (base) vs $work_status (work)"
        exit 1
    fi
    echo "same $name (exit $work_status)"
    count=$((count + 1))
done
echo "stdout_identity: all $count binaries byte-identical to ${base:0:12}"
