#!/usr/bin/env bash
# Full local gate: lint, build, test, the end-to-end benchmark build, and
# the repro smoke runs.
#
# The benchmark crate (perf/, its own workspace) is built and listed so a
# library change that breaks it fails here, not at benchmark time, and
# each of its workloads runs briefly so a batch-path bug that perf would
# report as "correct": false fails here too. Every repro smoke runs
# inside a fresh temporary directory and its greps and cmps read the
# artifacts written there: the committed full-length BENCH_*.json files
# are never overwritten by 2-frame smoke numbers.
#
# The determinism diff renders the paper's suite figures at 1 and at 4
# worker threads and requires byte-identical stdout: every simulated
# number must be independent of the thread count.
#
# The parallel smoke exercises the threaded tile pipeline end to end
# (repro --smoke --threads 2), which cross-checks that one worker and a
# worker pool produce bit-identical results and writes
# BENCH_tile_pipeline.json with measured host throughput. The fault
# smoke (repro --smoke --faults all --threads 2) injects every fault
# class at tiny M and fails on panics or silent pair losses, writing
# BENCH_fault_tolerance.json. The temporal smoke renders static clips
# with tile reuse off vs on and fails unless results are bit-identical
# and the cache actually replayed tiles
# (BENCH_temporal_coherence.json). The frontend smoke A/Bs the
# incremental geometry front-end against a full rebuild and fails on
# any divergence or wall-clock regression
# (BENCH_geometry_frontend.json). The broad-phase smoke A/Bs the
# screen-space broad phase against an unpruned run and fails on any
# divergence or wall-clock regression (BENCH_broadphase.json). The
# overload smoke sweeps the
# frame-deadline governor down to a 25% cycle budget under the storm
# fault plan (repro exits non-zero on any budget violation or silent
# oracle miss) and re-runs it at 1/2/4 threads, requiring byte-identical
# BENCH_overload.json artifacts. The serve smoke pushes 8 staggered
# sessions through the multi-session scheduler at 1/2/4 workers and
# requires zero cross-session interference, a leak-free admission
# ledger, and a byte-identical report (modulo host_* wall-clock lines)
# across thread counts.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo clippy, every target (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test --workspace --quiet

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== benchmark build (perf/) =="
cargo build --release --frozen --manifest-path perf/Cargo.toml
cargo run --quiet --release --frozen --manifest-path perf/Cargo.toml --bin perf -- --list > /dev/null

echo "== benchmark correctness smoke (perf --frames 8, every workload) =="
# Short runs of every workload: perf exits non-zero when a step fails,
# when a sampled frame reports a pair the software oracle lacks, or when
# a later pass does not reproduce the first pass's per-step simulated
# fingerprint. Only the checks matter here, not the timings.
for w in paper swarm overflow service; do
  cargo run --quiet --release --frozen --manifest-path perf/Cargo.toml --bin perf -- \
    --workload "$w" --seed 1 --frames 8 --seconds 0 --trace 0 > /dev/null \
    || { echo "perf smoke: workload $w failed its correctness checks"; exit 1; }
done

# Smokes write their artifacts into the working directory: run them all
# in a scratch directory so the committed artifacts stay untouched.
repro="$PWD/target/release/repro"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

echo "== determinism diff (repro suite figures, --threads 1 vs 4) =="
# The suite experiments print simulated results only (host timings go
# to stderr), so their stdout must match byte for byte.
for t in 1 4; do
  "$repro" fig9a table3 fig8a fig10 sec52 --frames 2 --threads "$t" > "suite.$t.txt"
done
cmp -s suite.1.txt suite.4.txt \
  || { echo "determinism diff: suite output differs between 1 and 4 threads"; diff suite.1.txt suite.4.txt | head -20; exit 1; }

echo "== parallel pipeline smoke (repro --smoke --threads 2) =="
"$repro" --smoke --threads 2

echo "== fault injection smoke (repro --smoke --faults all --threads 2) =="
"$repro" --smoke --faults all --threads 2

echo "== trace smoke (repro --smoke --frames 2 --trace) =="
# Renders two traced frames, re-parses the Chrome JSON with the crate's
# own parser, and cross-checks heatmap totals against the unit's
# counters; repro exits non-zero if anything disagrees. Then make sure
# the artifacts actually landed and are non-empty.
"$repro" --smoke --frames 2 --trace trace.json
for f in trace.json trace.occupancy.csv trace.overflows.csv trace.scan_cycles.csv trace.pairs.csv trace.rung.csv trace.reuse.csv trace.scan_skipped.csv trace.shed.csv trace.splice.csv trace.broadphase.csv; do
  [ -s "$f" ] || { echo "trace smoke: missing or empty $f"; exit 1; }
done
grep -q '"traceEvents"' trace.json || { echo "trace smoke: no traceEvents key"; exit 1; }

echo "== temporal coherence smoke (repro --smoke temporal --threads 2) =="
# Renders the static clips twice (reuse off, then on); repro exits
# non-zero if reuse changes a pair set or an rbcd.* counter. On top of
# that, assert the cache actually fired: a static scene rendered twice
# must replay tiles.
"$repro" --smoke temporal --threads 2
[ -s BENCH_temporal_coherence.json ] || { echo "coherence smoke: missing BENCH_temporal_coherence.json"; exit 1; }
grep -q '"identical_results": true' BENCH_temporal_coherence.json \
  || { echo "coherence smoke: reuse-on run was not result-identical"; exit 1; }
if grep -q '"reuse_rate": 0\.000000' BENCH_temporal_coherence.json; then
  echo "coherence smoke: static scenes replayed zero tiles"; exit 1
fi

echo "== hot-path smoke (repro --smoke hotpath) =="
# A/B of the span-mask rasterizer against the retained reference path:
# repro exits non-zero unless pairs, energy, and every shared counter
# are bit-identical, then times both and writes
# BENCH_raster_hotpath.json. On top of that, guard against a wall-clock
# regression: the mask hot path must never be slower than the scalar
# reference it replaced.
"$repro" --smoke hotpath
[ -s BENCH_raster_hotpath.json ] || { echo "hotpath smoke: missing BENCH_raster_hotpath.json"; exit 1; }
grep -q '"identical_results": true' BENCH_raster_hotpath.json \
  || { echo "hotpath smoke: mask run was not result-identical"; exit 1; }
geo=$(sed -n 's/.*"speedup_geomean": \([0-9.]*\).*/\1/p' BENCH_raster_hotpath.json)
[ -n "$geo" ] || { echo "hotpath smoke: no speedup_geomean in JSON"; exit 1; }
awk -v g="$geo" 'BEGIN { exit (g >= 1.0) ? 0 : 1 }' \
  || { echo "hotpath smoke: mask path slower than reference (geomean ${geo}x)"; exit 1; }

echo "== geometry front-end smoke (repro --smoke frontend) =="
# A/B of the incremental geometry front-end (per-draw transform/clip/
# bin caching with delta binning) against a full per-frame rebuild:
# repro exits non-zero unless pairs, energy, and every non-geom.*
# counter are bit-identical across thread counts, reuse on/off, fault
# storms, a governed budget, and the batch service, then times both and
# writes BENCH_geometry_frontend.json. On top of that, guard against a
# wall-clock regression: the cached front-end must never be slower than
# the rebuild it skips.
"$repro" --smoke frontend
[ -s BENCH_geometry_frontend.json ] || { echo "frontend smoke: missing BENCH_geometry_frontend.json"; exit 1; }
grep -q '"identical_results": true' BENCH_geometry_frontend.json \
  || { echo "frontend smoke: incremental run was not result-identical"; exit 1; }
geo=$(sed -n 's/.*"speedup_geomean": \([0-9.]*\).*/\1/p' BENCH_geometry_frontend.json)
[ -n "$geo" ] || { echo "frontend smoke: no speedup_geomean in JSON"; exit 1; }
awk -v g="$geo" 'BEGIN { exit (g >= 1.0) ? 0 : 1 }' \
  || { echo "frontend smoke: incremental front-end slower than rebuild (geomean ${geo}x)"; exit 1; }

echo "== broad-phase smoke (repro --smoke broadphase) =="
# A/B of the screen-space broad phase (pair-infeasible draw pruning +
# single-occupant tile elision) against a broad-phase-off run: repro
# exits non-zero unless pairs and every non-image-side counter are
# bit-identical across thread counts, reuse on/off, fault storms, a
# governed budget, and the batch service, then times both on the
# sparse-swarm clips and writes BENCH_broadphase.json. On top of that,
# guard against a wall-clock regression: pruning must never be slower
# than rendering everything.
"$repro" --smoke broadphase
[ -s BENCH_broadphase.json ] || { echo "broadphase smoke: missing BENCH_broadphase.json"; exit 1; }
grep -q '"identical_results": true' BENCH_broadphase.json \
  || { echo "broadphase smoke: pruned run was not result-identical"; exit 1; }
geo=$(sed -n 's/.*"speedup_geomean": \([0-9.]*\).*/\1/p' BENCH_broadphase.json)
[ -n "$geo" ] || { echo "broadphase smoke: no speedup_geomean in JSON"; exit 1; }
awk -v g="$geo" 'BEGIN { exit (g >= 1.0) ? 0 : 1 }' \
  || { echo "broadphase smoke: broad phase slower than off (geomean ${geo}x)"; exit 1; }

echo "== overload governor smoke (repro --smoke overload) =="
# Sweeps the frame-deadline governor over 100/75/50/25 % cycle budgets
# under the storm fault plan; repro itself exits non-zero on any budget
# violation (a frame overshooting its budget by more than one tile's
# slack) or any silent oracle miss (an unrouted non-shed pair absent
# from the exact partition). On top of that, the governed sweep must be
# deterministic: 1, 2, and 4 worker threads must land byte-identical
# artifacts.
"$repro" --smoke overload --threads 1
[ -s BENCH_overload.json ] || { echo "overload smoke: missing BENCH_overload.json"; exit 1; }
grep -q '"budget_violations": 0' BENCH_overload.json \
  || { echo "overload smoke: a frame blew its cycle budget"; exit 1; }
grep -q '"oracle_misses": 0' BENCH_overload.json \
  || { echo "overload smoke: silent oracle misses in the exact partition"; exit 1; }
cp BENCH_overload.json overload.1.json
for t in 2 4; do
  "$repro" --smoke overload --threads "$t"
  cmp -s overload.1.json BENCH_overload.json \
    || { echo "overload smoke: governed sweep diverged at $t threads"; exit 1; }
done

echo "== multi-session service smoke (repro serve --smoke) =="
# Admits 8 staggered sessions (mixed reuse/fault/governor policies) plus
# deliberate over-capacity and empty-clip submissions, serves them at
# 1/2/4 workers, and byte-compares every session's artifact against its
# solo run in-process; repro exits non-zero on any interference or
# ledger leak. On top of that, the report itself must be deterministic:
# after stripping host_* wall-clock lines, runs at 1, 2, and 4 threads
# must land byte-identical BENCH_multi_session.json artifacts.
"$repro" serve --smoke --threads 1
[ -s BENCH_multi_session.json ] || { echo "serve smoke: missing BENCH_multi_session.json"; exit 1; }
grep -q '"interference_free": true' BENCH_multi_session.json \
  || { echo "serve smoke: cross-session interference detected"; exit 1; }
grep -q '"leak_free": true' BENCH_multi_session.json \
  || { echo "serve smoke: admission ledger leaked a session"; exit 1; }
grep -v '"host_' BENCH_multi_session.json > serve.1.json
for t in 2 4; do
  "$repro" serve --smoke --threads "$t"
  grep -v '"host_' BENCH_multi_session.json > "serve.$t.json"
  cmp -s serve.1.json "serve.$t.json" \
    || { echo "serve smoke: session report diverged at $t threads"; exit 1; }
done

echo "OK: lint + build + tests + smokes all passed"
