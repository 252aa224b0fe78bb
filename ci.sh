#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, build, and the full test suite on the
# small kernel. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy --release (warnings are errors)"
cargo clippy --workspace --release -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (PERSPECTIVE_KERNEL=small)"
PERSPECTIVE_KERNEL=small cargo test -q --release

echo "==> experiment --json output vs checked-in baselines (small kernel)"
mkdir -p target/bench-json
for exp in fig_9_2 table_10_1; do
    PERSPECTIVE_KERNEL=small PERSPECTIVE_THREADS=4 \
        ./target/release/"$exp" --json >"target/bench-json/$exp.json"
    ./target/release/json_check <"target/bench-json/$exp.json"
    if ! diff -u "BENCH_$exp.json" "target/bench-json/$exp.json"; then
        echo "ci: $exp --json drifted from BENCH_$exp.json" >&2
        echo "ci: if the change is intended, regenerate the baseline (see EXPERIMENTS.md)" >&2
        exit 1
    fi
done

echo "==> fast-vs-slow differential smoke cell (PERSPECTIVE_NO_FASTFWD=1)"
# The idle-cycle fast-forward must be invisible in every serialized
# counter: the cycle-by-cycle slow path has to reproduce the checked-in
# baselines byte for byte.
for exp in fig_9_2 table_10_1; do
    PERSPECTIVE_KERNEL=small PERSPECTIVE_THREADS=4 PERSPECTIVE_NO_FASTFWD=1 \
        ./target/release/"$exp" --json >"target/bench-json/$exp.slow.json"
    ./target/release/json_check <"target/bench-json/$exp.slow.json"
    if ! diff -u "BENCH_$exp.json" "target/bench-json/$exp.slow.json"; then
        echo "ci: $exp --json differs with the fast-forward disabled" >&2
        echo "ci: the fast-forward must be cycle-exact; this is a pipeline bug, not a baseline drift" >&2
        exit 1
    fi
done

echo "==> cell cache: cold, warm, and verify runs are byte-identical (small kernel)"
# Cold-populate a throwaway cache, then re-run warm: both documents must
# match each other AND the checked-in baselines exactly (hit/miss
# counters are stderr-only observability, never part of the document).
# A verify pass then recomputes every cell and asserts the stored
# entries re-serialize byte-identically — a forgotten SIM_VERSION bump
# fails here before it can poison anyone's cache.
rm -rf target/persp-cache-ci
for exp in fig_9_2 table_10_1; do
    for mode in on on verify; do
        PERSPECTIVE_KERNEL=small PERSPECTIVE_THREADS=4 \
            PERSPECTIVE_CACHE=$mode PERSPECTIVE_CACHE_DIR=target/persp-cache-ci \
            ./target/release/"$exp" --json >"target/bench-json/$exp.cache-$mode.json"
        ./target/release/json_check <"target/bench-json/$exp.cache-$mode.json"
        if ! diff -u "BENCH_$exp.json" "target/bench-json/$exp.cache-$mode.json"; then
            echo "ci: $exp --json differs under PERSPECTIVE_CACHE=$mode" >&2
            echo "ci: cached runs must be byte-identical to cold runs and the baseline" >&2
            exit 1
        fi
    done
done
if ! ls target/persp-cache-ci/cell-*.json >/dev/null 2>&1; then
    echo "ci: cache runs completed but no cell entries were written" >&2
    exit 1
fi

echo "==> paper-scale byte identity: perfbench --pin vs perfbench/reference/digests.txt"
# Simulates the benchmark's LEBench and datacenter cell sets once on the
# paper-scale kernel at its default seed and prints one FNV-1a digest
# per cell; they must equal the pinned reference line for line. This
# needs no hardware counters (only the timed benchmark runs do).
seed=1592597994
cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
    --pin "$seed" | grep -v '^#' >target/bench-json/perfbench-pin.txt
if ! grep "^$seed " perfbench/reference/digests.txt | diff -u - target/bench-json/perfbench-pin.txt; then
    echo "ci: paper-scale cell digests drifted from perfbench/reference/digests.txt" >&2
    echo "ci: a speed-only change must leave them unchanged (see perfbench/NOTES.md)" >&2
    exit 1
fi

echo "==> sni_check smoke run (small kernel): clean + canned fault plans"
# The binary exits nonzero unless clean Perspective runs show zero SNI
# violations, the UNSAFE baseline is flagged, the attack scenario leaks
# only under UNSAFE, and 100% of injected faults are detected.
PERSPECTIVE_KERNEL=small PERSPECTIVE_THREADS=4 \
    ./target/release/sni_check --json >target/bench-json/sni_check.json
./target/release/json_check <target/bench-json/sni_check.json

echo "ci: all gates passed"
