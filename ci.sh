#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the tier-1 build+test pass.
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== rustfmt =="
cargo fmt --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== workspace tests =="
cargo test --workspace -q

echo "== crash-recovery simulation =="
# `cargo test --workspace` above already ran the sim crate's default sweep
# (every systematic crash point + 200 seeded random schedules). This narrow
# re-run is the fixed-seed smoke a quick pre-push uses: any failure prints
# the exact SIM_SEEDS reproduction command for the offending seed.
SIM_SEEDS=0..8 cargo test -q -p sim --test random_schedules

echo "== golden traces =="
# Explicit drift gate: the committed span trees and the EXPLAIN renders under
# tests/golden/ are a contract — including the access-path surface
# (explain_indexed_join pins the access=probe span note and the per-database
# "access path" cost lines). Regenerate intentionally with UPDATE_GOLDEN=1.
cargo test -q --test t1_trace_golden
cargo test -q --test fault_tolerance recovery_trace_is_golden

echo "== access-path equivalence =="
# Narrow re-run of the index oracle: indexed probes must answer exactly like
# the reference scan, before and after aborted DML (the workspace pass above
# already ran it; this names it so a failure is unmistakable).
cargo test -q -p ldbs --test index_equivalence

echo "== lock-manager stress matrix =="
# The seeded lock/deadlock stress schedules under increasing thread counts:
# invariants (no lost locks, no lost updates, every cycle broken) must hold
# whether contention is light or heavily oversubscribed on this host.
for n in 2 4 8; do
    echo "--  $n worker threads"
    LOCK_STRESS_THREADS=$n cargo test -q -p ldbs --test lock_stress
done

echo "== concurrency oracle =="
# Named re-run of the serializability check: 120 seeded two-session
# schedules, each final state must equal some serial statement order (the
# workspace pass above already ran it; a failure here is unmistakable).
cargo test -q --test concurrency_oracle

echo "== wire differential =="
# The binary codec equivalence gate: the Q1–Q4 + join + fault-schedule suite
# must be observably identical under text and binary framing, and the codec
# property/robustness suites (roundtrips for every proto variant, truncation/
# bit-flip rejection) must hold. The workspace pass above already ran these;
# naming them makes a codec regression unmistakable.
cargo test -q --test wire_differential
cargo test -q -p mdbs --test codec_proptests
cargo test -q -p mdbs --test codec_robustness

echo "== planner oracle =="
# The cost-based planner equivalence gate: for random data, random
# fresh/stale/absent statistics and random predicate shapes, the costed
# distributed plan must return exactly the rows of the statistics-free
# heuristic plan. The ANALYZE lifecycle suite (statement routing, GDD stats
# cache fetch/hit/invalidate, EXPLAIN estimates) rides along.
cargo test -q --test planner_oracle
cargo test -q --test analyze_stats

echo "== aggregate oracle =="
# The aggregate/top-k pushdown equivalence gate: for random data (empty
# groups, all-NULL columns, empty sites, single-site degenerates), a query
# with pushdown on must return exactly the rows of the same query with
# pushdown off AND of an independent plain-Rust reference evaluator.
cargo test -q --test aggregate_oracle

echo "== bench smoke (--test mode) =="
# Every benchmark payload must still execute; no timing sweep. This includes
# b9_cross_join, b10_local_index, b11_concurrency, b12_wire_codec,
# b13_planner and b14_aggregate, whose smoke passes also refresh
# BENCH_cross_join.json, BENCH_local_index.json, BENCH_concurrency.json,
# BENCH_wire_codec.json, BENCH_planner.json and BENCH_aggregate.json (the
# b12, b13 and b14 smokes assert their ≥2x reductions inline).
cargo bench --workspace -- --test

echo "== perfbench =="
# The repository benchmark (BENCHMARK.json): its own tests, then a smoke run
# of every workload, each failing unless the run's last line reports
# "correct": true. Smoke runs write perfbench/out/*-smoke.json, so they
# never overwrite a real run.
cargo test --offline --manifest-path perfbench/Cargo.toml
for w in analytic_joins_0ms vital_writes_0ms paper_mix_1ms; do
    echo "--  $w"
    last=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed 1 --smoke | tail -n 1)
    if ! grep -q '"correct": true' <<<"$last"; then
        echo "perfbench smoke of $w is not correct: $last"
        exit 1
    fi
done

echo "CI OK"
