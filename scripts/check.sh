#!/usr/bin/env bash
# Full local gate: everything CI runs, in the same order.
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
    run cargo build --release --locked -p sos-examples --bins
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
# Clippy also enforces the workspace lint table (Cargo.toml, clippy.toml):
# no unwrap in the storage stack, no todo!/dbg!, no f32, no sleep, docs.
run cargo clippy --workspace --all-targets -- -D warnings
# sos-lint: lossy casts, suppressions, panic-freedom and determinism.
run cargo run -q -p sos-analyze --bin sos-lint
# Doc links to private or deleted items fail here.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --locked
mkdir -p target
cargo run -q -p sos-analyze --bin sos-lint -- --format json > target/sos-lint-report.json || true
echo "==> sos-lint JSON report: target/sos-lint-report.json"
# The benchmark is its own package with its own lock file: a change to
# the API it consumes, or a lock rewrite, fails here in seconds.
run cargo check --offline --locked --manifest-path perfbench/Cargo.toml

if [[ "$fast" -eq 0 ]]; then
    run cargo build --release --locked
    run cargo test -q --locked
    # The crash-sweep job: crash-injection tests, then the 500+ crash
    # point sweep with cuts inside recovery.
    run cargo test --release -q --locked -p sos-flash fault
    run cargo test --release -q --locked -p sos-ftl recovery
    run cargo test --release -q --locked -p sos-ftl --test proptest_recovery
    run cargo test --release -q --locked -p sos-core remount
    run cargo test --release -q --locked -p sos-analyze --test crash_sweep -- --include-ignored
    # Benchmark contract: traced and untraced digests agree, every
    # BENCHMARK.json metric is printed, seeds round-trip exactly.
    run cargo test --offline --locked --manifest-path perfbench/Cargo.toml
    examples
fi

echo "check.sh: all gates passed"
