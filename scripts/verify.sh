#!/usr/bin/env bash
# Full offline verification: build, test, lint. This is what CI (and the
# repo's tier-1 gate) runs; it must pass with no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release --offline --manifest-path perfbench/Cargo.toml"
# The benchmark is a package of its own outside the workspace; build it
# here so a public-API change in vgprs-load or vgprs-sim that breaks it
# fails verification, not the benchmark run.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q"
cargo test -q

echo "==> cross-shard determinism suite (release)"
# The thread-invariance property is the load engine's core promise;
# run it in release too so the optimized schedule is also covered.
cargo test --release -q -p vgprs-load --test determinism

echo "==> chaos determinism smoke (node + trunk faults: threads + zero plan)"
# A fixed fault plan — node faults and the four inter-shard trunk
# classes (loss, dup, reorder, partition) — must fingerprint
# identically at threads 1, 2 and 8, a zero-intensity plan must
# reproduce the fault-free run byte for byte (trunk fabric disarmed is
# the bare mailbox), a reference trunk run must actually retransmit
# (non-vacuity), and per-class trunk damage must be monotone in
# intensity.
cargo run --release -q -p vgprs-bench --bin harness -- chaos --check

echo "==> surge determinism + monotonicity smoke (flash crowds + overload controls)"
# A surged, controlled run must fingerprint identically at threads 1, 2
# and 8, a zero-shock plan must reproduce the flat busy hour byte for
# byte, and overload-control interventions must grow monotonically
# with shock intensity.
cargo run --release -q -p vgprs-bench --bin harness -- surge --check

echo "==> KPI regression gate (fresh small run vs committed baseline)"
# A fresh canonical small-population run is structurally diffed against
# baselines/load_small.json under diff-thresholds.toml. A regressed,
# missing or drifted KPI exits nonzero. After an *intentional* KPI
# change, refresh the baseline with scripts/update-baselines.sh and
# commit it with the change.
cargo run --release -q -p vgprs-bench --bin harness -- diff --check

echo "==> no ignored tests"
# An #[ignore]d test is a silently skipped promise. Fail loudly instead.
if grep -rn '#\[ignore' crates tests; then
    echo "error: ignored tests found (listed above)" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> OK"
