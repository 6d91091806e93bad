#!/usr/bin/env bash
# Regenerates BENCH_pipeline.json, BENCH_index.json, BENCH_flows.json,
# BENCH_filters.json, BENCH_serve.json and BENCH_stream.json: builds
# release, simulates a corpus, times the analysis stages of a 1-worker
# analyzer (every stage inline on one thread) against an all-cores one
# (stage chains on scoped threads; best-of-N each; the prepare:index rows
# time the index build at one worker and at all cores), runs the LPM
# micro-bench (trie vs frozen lookups), the
# flow-store micro-bench (AoS vs columnar vs columnar+enriched kernel
# scans), the predicate-pushdown bench (naive rowwise vs masked kernels vs
# masked+chunk-pruned on one thread, answers byte-checked against the
# naive reference before timing), the rtbhd serve load bench (concurrent
# clients against an in-process daemon, responses cross-checked
# byte-for-byte against the batch report before timing) and the
# stream-ingest bench (event-driven replay through rtbh_core::stream,
# finalized report byte-checked against batch before every timed rep).
#
# usage: scripts/bench_pipeline.sh [scale] [reps]
#   scale  scenario scale factor (default 0.25; 1.0 = full 104-day corpus)
#   reps   timing repetitions per analyzer/structure (default 3)
#
# See the README's "Performance" section for how to read the output.
set -euo pipefail
cd "$(dirname "$0")/.."

scale="${1:-0.25}"
reps="${2:-3}"

cargo build --release -p rtbh-bench --bin pipeline_bench

# pipeline_bench exits non-zero when the 1-worker and all-cores reports
# are not byte-identical (or the LPM/flow-store micro-benches diverge),
# --flows-floor additionally fails the run if the enriched-kernel speedup
# vs the AoS baseline regresses below 5x, --filters/--filters-floor fail
# it if any masked filter answer diverges from the naive rowwise
# reference or the masked-kernel speedup at one worker drops below 4x,
# --serve/--serve-floor fail it if any rtbhd response diverges from the
# batch report or throughput drops below 200 q/s, and
# --stream/--stream-floor fail it if the stream-finalized report ever
# diverges from batch or ingest drops below 100k events/s (the CI gates).
# Guard it explicitly — `set -e` alone would die silently mid-script, and
# a benched pipeline whose modes disagree must fail loudly, not just
# print numbers.
if ! ./target/release/pipeline_bench --scale "$scale" --reps "$reps" \
    --out BENCH_pipeline.json --index-out BENCH_index.json \
    --flows-out BENCH_flows.json --flows-floor 5 \
    --filters --filters-out BENCH_filters.json --filters-floor 4 \
    --serve --serve-out BENCH_serve.json --serve-floor 200 \
    --stream --stream-out BENCH_stream.json --stream-floor 100000; then
    echo "bench_pipeline: FAILED — report identity, LPM/flow-store/filter/serve/stream equivalence, the 5x enriched-kernel floor, the 4x masked-filter floor, the 200 q/s serve floor or the 100k events/s stream floor did not pass" >&2
    exit 1
fi
