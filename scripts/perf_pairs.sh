#!/usr/bin/env bash
# Paired perfbench comparison of the working tree against a base
# revision: the harness with known noise that perf claims cite.
#
# Exports <base-rev> with `git archive` into target/perf-pairs/base and
# builds its perfbench with its own target dir, the way
# scripts/stdout_identity.sh does. Then runs 10 alternating pairs (base
# first in odd pairs, working tree first in even ones) of BENCHMARK.json's
# command line with `--workload all --seed <seed> --seconds 10 --trace 0`.
#
# For each workload and end-to-end metric it prints both sides' median
# and interquartile range over the 10 runs, and how many of the 10 pairs
# the working tree won (strictly better in the metric's direction; ties
# count for neither side). For each workload it prints whether each
# side's `sim_digest` held across its runs, and each side's failed
# operations summed over its runs.
#
# Usage: scripts/perf_pairs.sh <base-rev> <seed>
#
# Exit 0 after printing the table, 2 on a usage error. Takes about
# 11 minutes on 2 cores. Deliberately not a CI gate: it measures, it
# does not judge.
set -euo pipefail

pairs=10

if [[ $# -ne 2 ]]; then
    echo "usage: $0 <base-rev> <seed>" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
root="$(pwd)"
if ! base="$(git rev-parse --verify --quiet "$1^{commit}")"; then
    echo "perf_pairs: unknown revision '$1'" >&2
    exit 2
fi
seed="$2"
if [[ ! "$seed" =~ ^[0-9]+$ ]]; then
    echo "perf_pairs: seed must be an unsigned integer, got '$seed'" >&2
    exit 2
fi

scratch="$root/target/perf-pairs"
base_src="$scratch/base"
out="$scratch/out"

trap 'rm -rf "$base_src"' EXIT

rm -rf "$base_src" "$out"
mkdir -p "$base_src" "$out"
git archive "$base" | tar -x -C "$base_src"

# BENCHMARK.json's command line, one array element per word.
mapfile -t command < <(sed -n 's/^ *"command": \[\(.*\)\],$/\1/p' BENCHMARK.json |
    tr ',' '\n' | sed 's/^ *"\(.*\)" *$/\1/')
if [[ ${#command[@]} -eq 0 ]]; then
    echo "perf_pairs: no command line in BENCHMARK.json" >&2
    exit 2
fi

# Runs one side's perfbench from its own checkout; stdout goes to $3.
# A failed gate (exit 1) still prints its records, so the exit status is
# not fatal here.
run_side() {
    local src="$1" target="$2" file="$3"
    (cd "$src" && CARGO_TARGET_DIR="$target" "${command[@]}" \
        --workload all --seed "$seed" --seconds 10 --trace 0 2>/dev/null || true) >"$file"
}

echo "==> building base ${base:0:12} and working tree perfbench"
(cd "$base_src" && CARGO_TARGET_DIR="$scratch/perfbench-target" \
    cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml

for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2 == 1)); then
        order="base work"
    else
        order="work base"
    fi
    for side in $order; do
        if [[ "$side" == base ]]; then
            run_side "$base_src" "$scratch/perfbench-target" "$out/base.$pair"
        else
            run_side "$root" "$root/perfbench/target" "$out/work.$pair"
        fi
    done
    echo "==> pair $pair/$pairs done ($order)"
done

# One "<side> <pair> <key> <value>" line per measurement: keys are
# "<workload>.<metric>" for end-to-end metrics, "<workload>.sim_digest"
# for digests and "failed" for the run's failed operations.
table() {
    local file side pair
    for file in "$out"/base.* "$out"/work.*; do
        side="${file##*/}"
        pair="${side#*.}"
        side="${side%%.*}"
        {
            sed -n 's/.*"record": {"workload": "\([a-z_]*\)".*"sim_digest": "\([0-9a-f]*\)".*/\1.sim_digest \2/p' "$file"
            sed -n 's/^{"correct": [a-z]*, "attempted": [0-9]*, "failed": \([0-9]*\),.*/failed \1/p' "$file"
            grep -o '"[a-z_]*\.[a-z_]*": {"value": [-0-9.eE+]*' "$file" |
                sed 's/^"\([a-z_.]*\)": {"value": \(.*\)$/\1 \2/' || true
        } | sed "s/^/$side $pair /"
    done
}

workloads="$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' BENCHMARK.json | tr '\n' ' ')"
# "<metric> <lower|higher>" per end-to-end metric.
metrics="$(sed -n 's/.*{"name": "\([a-z_]*\)", "unit": "[^"]*", "better": "\([a-z]*\)", "bound".*/\1 \2/p' BENCHMARK.json | tr '\n' ';')"

echo "==> $pairs alternating pairs, seed $seed: base ${base:0:12} vs working tree"
table | awk -v pairs="$pairs" -v workloads="$workloads" -v metrics="$metrics" '
    { value[$1, $2, $3] = $4 }
    # Quantile q of the n sorted values in s[1..n], linear interpolation.
    function quantile(s, n, q,    h, lo) {
        h = (n - 1) * q + 1
        lo = int(h)
        if (lo >= n) return s[n]
        return s[lo] + (h - lo) * (s[lo + 1] - s[lo])
    }
    # Sorts one side'"'"'s values of key k into s[1..n]; returns n.
    function collect(side, k, s,    n, p, i, j, v) {
        n = 0
        for (p = 1; p <= pairs; p++) {
            if ((side, p, k) in value) s[++n] = value[side, p, k] + 0
        }
        for (i = 2; i <= n; i++) {
            v = s[i]
            for (j = i - 1; j >= 1 && s[j] > v; j--) s[j + 1] = s[j]
            s[j + 1] = v
        }
        return n
    }
    # "held <digest>", "VARIED (<d> distinct)" or "missing".
    function digest(side, k,    p, first, distinct, seen, n) {
        n = 0
        distinct = 0
        for (p = 1; p <= pairs; p++) {
            if (!((side, p, k) in value)) continue
            n++
            if (!(value[side, p, k] in seen)) {
                seen[value[side, p, k]] = 1
                distinct++
                if (first == "") first = value[side, p, k]
            }
        }
        if (n < pairs) return "missing in " (pairs - n) " runs"
        return distinct == 1 ? "held " first : "VARIED (" distinct " distinct)"
    }
    END {
        nw = split(workloads, wl, " ")
        nm = split(metrics, ms, ";")
        for (w = 1; w <= nw; w++) {
            for (m = 1; m <= nm; m++) {
                if (split(ms[m], parts, " ") != 2) continue
                k = wl[w] "." parts[1]
                nb = collect("base", k, b)
                nc = collect("work", k, c)
                if (nb == 0 || nc == 0) {
                    printf "%s: missing (base %d runs, work %d runs)\n", k, nb, nc
                    continue
                }
                wins = 0
                for (p = 1; p <= pairs; p++) {
                    if (!(("base", p, k) in value) || !(("work", p, k) in value)) continue
                    x = value["base", p, k] + 0
                    y = value["work", p, k] + 0
                    if ((parts[2] == "higher" && y > x) || (parts[2] == "lower" && y < x)) wins++
                }
                printf "%s (%s is better): base median %.4g IQR %.4g | work median %.4g IQR %.4g | work wins %d/%d\n", \
                    k, parts[2], quantile(b, nb, 0.5), quantile(b, nb, 0.75) - quantile(b, nb, 0.25), \
                    quantile(c, nc, 0.5), quantile(c, nc, 0.75) - quantile(c, nc, 0.25), wins, pairs
            }
            k = wl[w] ".sim_digest"
            printf "%s: base %s | work %s\n", k, digest("base", k), digest("work", k)
        }
        for (side = 1; side <= 2; side++) {
            name = side == 1 ? "base" : "work"
            failed = 0
            for (p = 1; p <= pairs; p++) failed += value[name, p, "failed"]
            printf "failed operations, %s: %d over %d runs\n", name, failed, pairs
        }
    }'
