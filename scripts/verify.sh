#!/usr/bin/env bash
# Hermetic verification: offline release build, offline test suite, and a
# dependency audit asserting the workspace depends on nothing outside
# this repository. Run from anywhere; operates on the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== 1/15 offline release build =="
cargo build --release --offline

echo "== 2/15 offline test suite (pinned-thread matrix) =="
# The full suite — every crate's unit tests plus the root package's
# integration tests and doc-tests (the workspace's `default-members`
# covers all of them) — under both ends of the thread matrix: a
# single-worker pool (serial order must still hold, helper-only
# execution) and four workers (real stealing). Bitwise-determinism tests run in both, so a
# result that depends on the worker count cannot survive this step.
STRASSEN_THREADS=1 cargo test -q --offline
STRASSEN_THREADS=4 cargo test -q --offline

echo "== 3/15 experiments binary and fused-level probe smoke runs =="
# The `experiments` binary regenerates the paper's tables and figures
# and is the one timing harness besides benchmark/. Its smoke-scale
# ablation run (orders <= 128) takes well under a second and exercises
# every schedule, odd-handling, variant and depth row end to end.
cargo build --release --offline -p strassen-bench --bins
cargo run --release --offline --quiet -p strassen-bench --bin experiments -- ablation --scale smoke
# One round of the fused-level probe at an odd order: the fused level
# with peeling against gemm_parallel, through the probe's own agreement
# assert. Its timing is printed, not gated.
cargo run --release --offline --quiet --example fused_level_probe -- --n 1105 --rounds 1

echo "== 4/15 benchmark package builds and passes its tests =="
# The benchmark (BENCHMARK.json) is a package of its own outside the
# workspace, so no step above builds it. This catches a change to the
# public API of `serve` or `strassen` that would break it.
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

echo "== 5/15 AddressSanitizer over the unsafe kernels (nightly) =="
# The blas unit tests (micro-kernels, packers, the unpacked small tier's
# masked loads and stores, the pack-buffer lease), the kernel
# conformance suite, the fused Strassen level, the Table-1 memory tests,
# the schedule programs and their executor, the golden schedules and the
# probe cross-check under ASan.
# A mask one lane too wide in the small tier reads or writes past a
# view's last column, a packed nest that overruns its pack slab
# (table1_memory leases it at exactly its computed size), and a
# schedule view rebuilt from a raw slot with a wrong length or leading
# dimension (the schedule unit tests and probe_crosscheck's high-water
# tests run at exactly the computed workspace) each fail here as a
# heap-buffer-overflow. Own target directory: the sanitized build must
# not mix with the release artifacts above.
ASAN=(env RUSTFLAGS=-Zsanitizer=address CARGO_TARGET_DIR=target/asan
    cargo +nightly test --offline -q --target x86_64-unknown-linux-gnu)
"${ASAN[@]}" -p strassen-blas --lib
"${ASAN[@]}" -p strassen --lib schedules::
"${ASAN[@]}" -p strassen-repro --test kernel_conformance --test fused_kernels --test table1_memory \
    --test golden_schedules --test probe_crosscheck

echo "== 6/15 clippy (deny warnings) =="
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "== 7/15 rustfmt check =="
cargo fmt --check

echo "== 8/15 rustdoc (deny warnings) =="
# cargo doc reuses cached rustdoc output even when RUSTDOCFLAGS would now
# fail it; touch the crate roots so every crate is re-documented.
touch crates/*/src/lib.rs src/lib.rs
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== 9/15 doc-tests =="
cargo test --doc --workspace -q --offline

echo "== 10/15 profile report (staleness gate + live run + schema validation) =="
# First the staleness gate: the committed artifacts must match the
# structural fingerprint (schema, sections, exact flop totals, phase
# labels, timeline task/edge structure, folded frame set) of a fresh
# in-memory regeneration. Then one live regeneration: flop totals are
# asserted against the eq. (4) closed form inside the example, and the
# emitted JSON is re-parsed with the independent testkit parser and run
# through validate_profile_report before the OK marker prints.
cargo run --release --offline --example profile_report -- --quick --check | tail -n 2
cargo run --release --offline --example profile_report -- --quick | tail -n 3
grep -q '"schema":2' results/profile_report.json
grep -q '"timeline":' results/profile_report.json
grep -q '^dgefmm' results/profile_report.folded
echo "profile_report artifacts validated"

echo "== 11/15 execution timeline (record + strict re-parse + overhead gate) =="
# Records a parallel task-DAG run into the per-worker event rings and
# exports it as Chrome trace JSON. The example is its own acceptance
# check: the export re-parses with the strict testkit parser, every
# parallel level shows its tagged seven-temp tasks, one flow arrow
# exists per recorded DAG dependency edge, and recording overhead stays
# within the 5% gate (median of 9 paired on/off ratios; inside a pair
# the sides alternate one multiply at a time for about 100 ms each, and
# the side that goes first alternates by pair; TIMELINE_NO_GUARD=1
# demotes on noisy hosts).
cargo run --release --offline --example timeline_trace -- --n 512 --depth 2 | tail -n 3

echo "== 12/15 differential fuzz campaign (pinned 256 cases) =="
# The config-space fuzzer: 256 cases at a pinned master seed, every case
# a full random DGEFMM configuration (shape incl. odd/prime, α/β,
# transposes, variant, schedule, odd-handling,
# cutoff criterion, parallel_depth 0-3, task-DAG width, serial vs
# pool-parallel leaf GEMM, fused, blocking class, probe) checked against
# the compensated oracle under its Higham envelope. Deterministic: a failure here reproduces
# bit-for-bit with the reported (case seed, size) pair.
FUZZ_ITERS=256 TESTKIT_SEED=0xD1CE5EED \
    cargo test -q --offline --test fuzz_differential differential_fuzz_campaign
echo "fuzz campaign: 256/256 cases within the theoretical envelope"

echo "== 13/15 serving layer at 2 workers (admission + determinism + soak + buffer affinity) =="
# Step 2 already ran the serve suites at 1 and 4 workers; this completes
# the {1, 2, 4} matrix for the serving layer specifically. The
# determinism suite's inline-replay anchor is worker-count independent,
# so a served result that depends on the pool size fails one of the
# three runs. The affinity suite counts, with a wrapping global
# allocator, that the server's threads allocate and free no request
# matrix: each is allocated and freed on its client's thread.
STRASSEN_THREADS=2 cargo test -q --offline \
    --test serve_admission --test serve_determinism --test serve_soak --test serve_alloc_affinity
echo "serving suites passed at 2 workers"

echo "== 14/15 determinism spot-check at 2 workers =="
# The thread matrix in step 2 covers 1 and 4 workers; this completes the
# {1, 2, 4} set from the PR-7 acceptance criteria with the bitwise
# determinism suite at a 2-worker pool. (parallel_smoke's pool pin
# defers to STRASSEN_THREADS when it is set — an explicit
# set_num_threads would beat the env override — so the override here
# genuinely runs the suite on two workers.)
STRASSEN_THREADS=2 cargo test -q --offline --test parallel_smoke bitwise
echo "determinism suite passed at 2 workers"

echo "== 15/15 dependency audit: workspace-only graph, no oracle on the hot path =="
# Every package in the resolved graph must live under this repository;
# a single registry/git dependency would appear without the (path) suffix.
tree_out="$(cargo tree --workspace --edges normal,build,dev --prefix none --offline)"
external="$(printf '%s\n' "$tree_out" | sed '/^$/d' | grep -v '(\*)$' | grep -v "($(pwd)" || true)"
if [ -n "$external" ]; then
    echo "ERROR: non-workspace dependencies found:" >&2
    printf '%s\n' "$external" >&2
    exit 1
fi
echo "dependency graph is workspace-only ($(printf '%s\n' "$tree_out" | grep -c "($(pwd)") path entries)"

# Oracle-linkage audit: the compensated accuracy oracle is a test-only
# reference — it must never appear in the normal dependency graph of the
# hot path (the bench harness, the root crate, or the strassen kernels).
# `-e normal` excludes dev-dependencies, which is exactly the boundary
# the audit enforces.
for pkg in strassen-bench strassen-repro strassen; do
    if cargo tree -p "$pkg" -e normal --prefix none --offline | grep -q "strassen-accuracy"; then
        echo "ERROR: $pkg links the accuracy oracle into its normal (hot-path) graph" >&2
        exit 1
    fi
done
echo "oracle audit: accuracy crate absent from all hot-path dependency graphs"

echo "verify.sh: all checks passed"
