#!/usr/bin/env bash
# Regenerates BENCH_validation.json (validation hot-path before/after
# numbers) at the repo root. Run from anywhere inside the repo.
set -euo pipefail

cd "$(dirname "$0")/.."
cargo run --release --bin bench_validation

# The JSON must carry every tracked section; a refactor that silently
# drops one would otherwise go unnoticed until the next perf review.
for section in single_thread field_backend_ab scalar_backend_ab pipeline \
               signature_cache block_stream durability statedb cluster admission \
               lock_contention; do
  grep -q "\"$section\"" BENCH_validation.json \
    || { echo "error: BENCH_validation.json lost the $section section" >&2; exit 1; }
done

# The admission section must be populated, not an empty stub: its
# latency percentiles are the mempool front-end's tracked numbers.
for key in admission_p50_us admission_p99_us dedup_hit_rate shed_rate \
           verify_pool_occupancy; do
  grep -q "\"$key\"" BENCH_validation.json \
    || { echo "error: admission section lost the $key metric" >&2; exit 1; }
done

# The statedb section must carry the sharded-vs-legacy A/B, its
# in-bench equivalence gate (identical state hashes on both backends)
# and the small-batch apply leg.
for key in preload_keys preload_keys_per_s zipf_txs_per_s read_p50_us \
           read_p99_us backends_state_hash_equal small_apply_sharded_us \
           small_apply_legacy_us small_apply_sharded_over_legacy; do
  grep -q "\"$key\"" BENCH_validation.json \
    || { echo "error: statedb section lost the $key metric" >&2; exit 1; }
done

# The lock_contention section must report real per-label accounting
# from the fabric-check instrumentation, not an empty stub.
for key in total_acquisitions contention_rate hold_mean_us; do
  grep -q "\"$key\"" BENCH_validation.json \
    || { echo "error: lock_contention section lost the $key metric" >&2; exit 1; }
done
grep -q '"statedb.shard"' BENCH_validation.json \
  || { echo "error: lock_contention section lost the statedb.shard lock" >&2; exit 1; }

echo
echo "BENCH_validation.json:"
cat BENCH_validation.json
