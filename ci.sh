#!/usr/bin/env sh
# The CI pipeline: .github/workflows/ci.yml installs the toolchain and
# runs this script, so run it before pushing. CI sets
# QCS_BENCH_WALL_BUDGET=10 for the two bench gates (steps 14 and 15).
#
# The workspace is hermetic (no crates.io dependencies), so every step
# works fully offline. Steps, in order:
#
#   1. cargo build --release            release build, locked deps
#   2. Fig. 1 full-stack path           run the fig1 walkthrough and the
#                                       fullstack_run example: QASM through
#                                       frontend, the shared verified
#                                       compile, ISA and control dispatch
#                                       (cargo test only compiles examples)
#   3. cargo check stackbench           the repo benchmark is its own
#                                       workspace over crates/*: a public
#                                       API change that breaks it fails
#                                       here, not when the benchmark runs
#   4. cargo test  --workspace -q       every crate's unit + integration tests
#   5. cargo fmt   --check              formatting gate
#   6. cargo clippy -- -D warnings      lint gate (all targets, all crates)
#   7. serve smoke test                 boot daemon, compile a GHZ, compile a
#                                       QFT on a movement-based dpqa: device,
#                                       check --list-devices and stats
#   8. serve chaos test                 fault injection, hostile frames,
#                                       degraded-device sweep
#   9. persist smoke test               fill cache, kill -9, restart warm,
#                                       byte-identical responses
#  10. shard smoke test                 router + 3 shards: suite through the
#                                       router, per-shard cache locality,
#                                       kill -9 one shard with zero failed
#                                       requests
#  11. portfolio smoke test             auto-strategy compile, tight-deadline
#                                       degradation to a verified
#                                       trivial/trivial result, forced --race,
#                                       portfolio stats counters
#  12. semantic-cache smoke test        offline --canonical-digest twins,
#                                       then compile + renamed/reordered
#                                       twin served as a canonical hit
#  13. fleet chaos test                 supervised 3-shard fleet under seeded
#                                       transport faults: two SIGKILLs and a
#                                       SIGSTOP under closed-loop load lose
#                                       zero requests, killed shards restart
#                                       warm from their WAL, zero-budget
#                                       requests are rejected up front, and
#                                       SIGTERM drains the fleet cleanly
#  14. benchmark regression gate        fresh bench_baseline run vs the
#                                       committed BENCH_*.json (mapper incl.
#                                       portfolio selector/race counters, sim
#                                       and dpqa movement sweeps): work
#                                       counters exact, wall times within
#                                       QCS_BENCH_WALL_BUDGET (default 4x,
#                                       0 disables)
#  15. serving regression gate          fresh bench_load run vs the committed
#                                       BENCH_serve.json: routing/cache,
#                                       resilience and semantic (canonical
#                                       vs exact keying) counters exact,
#                                       latency and rps within the same
#                                       wall budget
#  16. router cross-check               a short traced stackbench near_dup_mix
#                                       run: fails if the router's placement
#                                       (ring, canonical-key memo) drifts
#                                       from the benchmark's mirror, or if
#                                       the per-shard forwarded counts do not
#                                       add up (closed loop, so no schedule
#                                       check can fail it)
set -eu

echo "==> cargo build --release"
# --workspace matters: the repo root is itself a package, so a bare
# `cargo build` would skip member binaries (bench_baseline, bench_load,
# qcs-serve, qcs-router, qcs-client) that later steps execute.
cargo build --release --workspace --locked

echo "==> Fig. 1 full-stack path"
./target/release/fig1
cargo run --release --locked --example fullstack_run

echo "==> cargo check stackbench"
cargo check --offline --locked --manifest-path stackbench/Cargo.toml

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> serve smoke test"
./ci_serve_smoke.sh

echo "==> serve chaos test"
./ci_chaos.sh

echo "==> persist smoke test"
./ci_persist_smoke.sh

echo "==> shard smoke test"
./ci_shard_smoke.sh

echo "==> portfolio smoke test"
./ci_portfolio_smoke.sh

echo "==> semantic-cache smoke test"
./ci_semcache_smoke.sh

echo "==> fleet chaos test"
./ci_fleet_chaos.sh

echo "==> benchmark regression gate"
./target/release/bench_baseline --check

echo "==> serving regression gate"
./target/release/bench_load --check

echo "==> router cross-check"
cargo run --release --offline --locked --quiet --manifest-path stackbench/Cargo.toml -- \
    --workload near_dup_mix --seed 5 --seconds 2 --trace 1

echo "CI OK"
