#!/usr/bin/env bash
# Hermetic CI: the workspace must build and test fully offline with an
# empty registry cache (path dependencies only — see DESIGN.md "Hermetic
# build policy"). Fails on any warning in the harness crate.
set -euo pipefail
cd "$(dirname "$0")/.."

# Hermetic guard: the lockfile must contain path dependencies only — a
# `source = ...` line means something resolved from a registry or git.
if grep -q '^source = ' Cargo.lock; then
    echo "ci: non-path dependency resolved in Cargo.lock" >&2
    exit 1
fi

# The harness is the substrate every test stands on (the work-stealing
# pool lives there) — hold it to warnings-as-errors. Same bar for the
# serving tier and the query engine (newest subsystems), and for the
# PS, the algorithms and the streaming tier the stream loop runs on.
for pkg in psgraph-harness psgraph-query psgraph-serve psgraph-core psgraph-ps psgraph-stream; do
    RUSTFLAGS="-D warnings" cargo build --offline -p "$pkg" --all-targets
done

cargo build --release --offline --workspace

# The repository benchmark is a separate package over the in-tree crates:
# building and testing it here makes a layer API change that breaks the
# benchmark fail CI instead of the next benchmark run.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml
# Release mode: the fig6/table emergence tests simulate whole cluster
# runs and are debug-prohibitive (>10 min); in release the full suite
# finishes in a few minutes.
#
# The full suite runs twice — genuinely serial (POOL_THREADS=1) and on
# every host core — and the normalized outputs must be identical: the
# deterministic-reduction rule says no result may depend on the pool
# size. Timing lines are stripped before the diff.
normalize() {
    sed -E -e 's/finished in [0-9.]+s//g' -e 's/^(test .*) \.\.\. .*/\1/' "$1"
}
POOL_THREADS=1 cargo test -q --offline --workspace --release >/tmp/ci-tests-t1.log 2>&1 \
    || { cat /tmp/ci-tests-t1.log; exit 1; }
POOL_THREADS="$(nproc)" cargo test -q --offline --workspace --release >/tmp/ci-tests-tmax.log 2>&1 \
    || { cat /tmp/ci-tests-tmax.log; exit 1; }
if ! diff <(normalize /tmp/ci-tests-t1.log) <(normalize /tmp/ci-tests-tmax.log) >/tmp/ci-tests.diff; then
    echo "ci: test outputs diverge between POOL_THREADS=1 and POOL_THREADS=$(nproc)" >&2
    cat /tmp/ci-tests.diff >&2
    exit 1
fi

# Serve-tier self-healing smoke: a small `repro -- serve` run with the
# mid-run replica kill (monitor-restarted) and delta hot-swap. The binary
# asserts zero wrong/stale answers, a completed rejoin, and a recovered
# p99 — a non-zero exit fails CI.
cargo run --release --offline -p psgraph-bench --bin repro -- serve --scale 0.02 --queries 5000

# Query-plan smoke: a mixed workload of all legacy shapes plus compound
# filter → expand → score → top-k plans, every answer checked against the
# single-node interpreter (the binary asserts 0 wrong), plus the pushdown
# ablation (cost-based pushdown must move strictly fewer shard→frontend
# bytes than frontend-only execution). Runs serial and on every host
# core; the deterministic-reduction rule says the normalized outputs must
# be identical.
POOL_THREADS=1 cargo run --release --offline -p psgraph-bench --bin repro -- \
    query --scale 0.02 --queries 4000 >/tmp/ci-query-t1.log \
    || { cat /tmp/ci-query-t1.log; exit 1; }
POOL_THREADS="$(nproc)" cargo run --release --offline -p psgraph-bench --bin repro -- \
    query --scale 0.02 --queries 4000 >/tmp/ci-query-tmax.log \
    || { cat /tmp/ci-query-tmax.log; exit 1; }
if ! diff <(sed '/wall clock/d' /tmp/ci-query-t1.log) <(sed '/wall clock/d' /tmp/ci-query-tmax.log) >/tmp/ci-query.diff; then
    echo "ci: query outputs diverge between POOL_THREADS=1 and POOL_THREADS=$(nproc)" >&2
    cat /tmp/ci-query.diff >&2
    exit 1
fi

# Streaming smoke: drift-RMAT edge events through micro-batch ingestion,
# incremental PageRank/CC maintenance, and delta hot-swaps into the live
# tier, at one ingestor and at four owner-keyed shards. The binary
# asserts zero wrong answers, L∞ ≤ 1e-6 vs a full recompute,
# reference-equal components, bounded freshness lag, and (at --shards 4)
# a final PS state digest bit-identical to a single-ingestor reference
# run. The two outputs must agree line-for-line — digest, freshness,
# swap/batch counts included — once wall-clock rows are stripped
# (events/s and swap cost legitimately differ across shard counts; the
# shard-count row is stripped too since it names the sweep point).
cargo run --release --offline -p psgraph-bench --bin repro -- \
    stream --scale 0.02 --events 6000 --shards 1 >/tmp/ci-stream-s1.log \
    || { cat /tmp/ci-stream-s1.log; exit 1; }
cargo run --release --offline -p psgraph-bench --bin repro -- \
    stream --scale 0.02 --events 6000 --shards 4 >/tmp/ci-stream-s4.log \
    || { cat /tmp/ci-stream-s4.log; exit 1; }
strip_wall() {
    sed -E -e '/wall clock/d' -e '/events\/s/d' -e '/swap cost/d' -e '/ingestor shards/d' "$1"
}
if ! diff <(strip_wall /tmp/ci-stream-s1.log) <(strip_wall /tmp/ci-stream-s4.log) >/tmp/ci-stream.diff; then
    echo "ci: stream outputs diverge between --shards 1 and --shards 4" >&2
    cat /tmp/ci-stream.diff >&2
    exit 1
fi
cat /tmp/ci-stream-s4.log

# Chaos smoke: the fault-injection soak at 3 pinned schedule seeds
# (0xC0FFEE..+2) — message loss/duplication/delay on every RPC, PS
# crash-recovery at arbitrary points, replica kills, DFS block
# corruption. The binary asserts zero wrong answers, bounded freshness,
# and a final PS state bit-identical to the fault-free reference; on any
# failure it prints the failing seed and the exact single-seed replay
# command (`repro -- chaos --seed S ...`).
cargo run --release --offline -p psgraph-bench --bin repro -- chaos --scale 0.02 --seeds 3 --events 3000

# Schedule-perturbation sweep: rerun both smokes under ten seeded
# steal-schedule perturbations (randomized victim order + injected
# yields). The binaries' internal correctness asserts — zero wrong
# answers, reference-equal results, and (sharded stream) a state digest
# bit-identical to the single-ingestor reference — must hold on every
# schedule: the sharded drain plans batches on the pool, so this is the
# path a steal-order bug would corrupt.
for seed in 1 2 3 4 5 6 7 8 9 10; do
    echo "ci: perturbation seed $seed"
    PSGRAPH_POOL_PERTURB=$seed cargo run --release --offline -p psgraph-bench --bin repro -- \
        serve --scale 0.01 --queries 1500 >/dev/null
    PSGRAPH_POOL_PERTURB=$seed cargo run --release --offline -p psgraph-bench --bin repro -- \
        stream --scale 0.01 --events 2000 --shards 2 >/dev/null
done

echo "ci: OK"
