#!/usr/bin/env bash
# Full local gate: everything CI runs, in the same order, except the CI
# crash-sweep job's ignored long sweep (`cargo test --release -p
# sos-analyze --test crash_sweep -- --include-ignored`).
# Usage: scripts/check.sh [--fast | --examples-only]
#   --fast skips the builds and test suites (lint-only gate).
#   --examples-only runs just the examples smoke test (the CI `examples`
#   job).
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# Examples smoke test: every example exits 0 at default args.
examples() {
    run cargo build --release -p sos-examples --bins
    for src in examples/*.rs; do
        name="$(basename "$src" .rs)"
        [[ "$name" == lib ]] && continue
        echo "==> $name"
        "target/release/$name" > /dev/null
    done
}

fast=0
case "${1:-}" in
    --fast) fast=1 ;;
    --examples-only)
        examples
        exit 0
        ;;
esac

run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings
run cargo run -q -p sos-analyze --bin sos-lint
run cargo run -q -p sos-analyze --bin sos-lint -- --only determinism
mkdir -p target
cargo run -q -p sos-analyze --bin sos-lint -- --format json > target/sos-lint-report.json || true
echo "==> sos-lint JSON report: target/sos-lint-report.json"
cargo run -q -p sos-analyze --bin sos-lint -- --only determinism --format json > target/sos-determinism-report.json || true
echo "==> determinism JSON report: target/sos-determinism-report.json"

if [[ "$fast" -eq 0 ]]; then
    run cargo build --release
    run cargo test -q
    # Benchmark contract: traced and untraced digests agree, every
    # BENCHMARK.json metric is printed, seeds round-trip exactly.
    run cargo test --offline --manifest-path perfbench/Cargo.toml
    examples
fi

echo "check.sh: all gates passed"
