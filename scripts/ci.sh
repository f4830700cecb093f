#!/usr/bin/env bash
# Tier-1 CI gate for the workspace (see README.md). Everything here must
# stay green: release build, the full test suite of every first-party
# crate (the root manifest's `default-members`, so one `cargo test`
# covers the robustness, equivalence and audit suites too), the
# out-of-workspace benchmark's self-tests (it builds against the public
# API, so this is what catches an API break there), and the
# documentation gate (warning-free rustdoc plus every doctest —
# including the fenced examples in README.md and docs/, compiled via
# `include_str!` doctest shims in src/lib.rs, so the prose cannot drift
# from the API).
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# The first-party crates, named explicitly: `--workspace` would also pull
# in the vendored dependency shims under vendor/, which are not held to
# the documentation bar.
CRATES=(
    -p hamming-suite -p ha-obs -p ha-bitcode -p ha-hashing -p ha-store
    -p ha-core -p ha-knn -p ha-mapreduce -p ha-datagen -p ha-distributed
    -p ha-service -p ha-bench
)

run cargo build --release
run cargo test -q
run cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Compile-only smoke over the criterion benches: keeps the bench
# harnesses (including flat_search, mih_search, kernel_sweep and
# par_search) building without paying for a measured run in CI.
run cargo bench --no-run -q -p ha-bench

echo "==> RUSTDOCFLAGS=-Dwarnings cargo doc --no-deps ${CRATES[*]}"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${CRATES[@]}" >/dev/null
run cargo test -q --doc "${CRATES[@]}"

echo "==> tier-1 green"
