#!/usr/bin/env bash
# Full local gate: lint, build, test, the end-to-end benchmark build, and
# the repro smoke runs.
#
# The benchmark crate (perf/, its own workspace) is built and listed so a
# library change that breaks it fails here, not at benchmark time, and
# each of its workloads runs briefly so a batch-path bug that perf would
# report as "correct": false fails here too; the simulated metrics of
# those runs must match scripts/perf_smoke_sim.txt. Every repro smoke runs
# inside a fresh temporary directory and its greps and cmps read the
# artifacts written there: the committed full-length BENCH_*.json files
# are never overwritten by 2-frame smoke numbers.
#
# The determinism diff runs every experiment that `repro` runs by
# default (`all`) at 1 and at 4 worker threads and diffs each stdout
# against the pinned scripts/repro_smoke.txt: every simulated number
# must be independent of the thread count, and none may move unless
# the pin is regenerated on purpose.
#
# The parallel smoke (repro --smoke --threads 2) runs the `bench` A/B,
# which checks that one worker and a tile pool produce bit-identical
# results and writes BENCH_tile_pipeline.json with measured host
# throughput. The fault smoke (repro --smoke --faults all --threads 2)
# injects every fault class at tiny M and fails on panics or silent
# pair losses, writing BENCH_fault_tolerance.json. The temporal smoke
# renders static clips with tile reuse off vs on and fails unless
# results are bit-identical and the cache actually replayed tiles
# (BENCH_temporal_coherence.json). The timed A/B smokes (hotpath,
# broadphase) each check one layer's two arms for bit-identical results
# and fail on any divergence or wall-clock regression
# (BENCH_raster_hotpath.json, BENCH_broadphase.json). The overload smoke
# sweeps the frame-deadline governor down to a 25% cycle budget under
# the storm fault plan (repro exits non-zero on any budget violation or
# silent oracle miss) and re-runs it at 1/2/4 threads, requiring
# byte-identical BENCH_overload.json artifacts. The serve smoke pushes 9 staggered
# sessions through the multi-session scheduler at 1/2/4 workers and
# requires zero cross-session interference, a leak-free admission
# ledger, and a byte-identical report across thread counts.
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

# Smokes write their artifacts into the working directory: run them all
# in a scratch directory so the committed artifacts stay untouched.
repro="$PWD/target/release/repro"
sim_pin="$PWD/scripts/perf_smoke_sim.txt"
repro_pin="$PWD/scripts/repro_smoke.txt"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== benchmark correctness smoke (perf --frames 8, every workload) =="
# Short runs of every workload: perf exits non-zero when a step fails,
# when a sampled frame reports a pair the software oracle lacks, or when
# a later pass does not reproduce the first pass's per-step simulated
# fingerprint. Those checks pass as long as a run agrees with itself, so
# the simulated end-to-end metrics are also compared against the pinned
# scripts/perf_smoke_sim.txt: a change that moves a simulated number on
# purpose regenerates that file and says why.
for w in paper swarm overflow service; do
  cargo run --quiet --release --frozen --manifest-path perf/Cargo.toml --bin perf -- \
    --workload "$w" --seed 1 --frames 8 --seconds 0 --trace 0 > "$work/perf.$w.txt" \
    || { echo "perf smoke: workload $w failed its correctness checks"; exit 1; }
  awk -v w="$w" '$1 == "sim_kcycles_per_frame" || $1 == "sim_uj_per_frame" || $1 == "pair_recall" { print w, $0 }' \
    "$work/perf.$w.txt" >> "$work/perf_sim.txt"
done
diff "$sim_pin" "$work/perf_sim.txt" \
  || { echo "perf smoke: simulated metrics differ from scripts/perf_smoke_sim.txt (diff above)"; exit 1; }
cd "$work"

echo "== determinism diff (repro --frames 2, --threads 1 and 4 vs scripts/repro_smoke.txt) =="
# With no experiment id, repro runs every experiment in `all`. Those
# print simulated results only (host timings go to stderr), so their
# stdout must match the pin byte for byte at any thread count. A change
# that moves a figure on purpose regenerates the pin and says why.
mkdir determinism
for t in 1 4; do
  (cd determinism && "$repro" --frames 2 --threads "$t") > "all.$t.txt"
  diff "$repro_pin" "all.$t.txt" \
    || { echo "determinism diff: repro --frames 2 --threads $t differs from scripts/repro_smoke.txt (diff above)"; exit 1; }
done

echo "== parallel pipeline smoke (repro --smoke --threads 2) =="
"$repro" --smoke --threads 2
grep -q '"identical_results": true' BENCH_tile_pipeline.json \
  || { echo "parallel smoke: the tile pool was not result-identical to one worker"; exit 1; }

echo "== fault injection smoke (repro --smoke --faults all --threads 2) =="
"$repro" --smoke --faults all --threads 2

echo "== trace smoke (repro --smoke --frames 2 --trace, --threads 1 vs 4) =="
# Renders two traced frames, re-parses the Chrome JSON with the crate's
# own parser, and cross-checks every heat plane that has a counter
# against it; repro exits non-zero if anything disagrees. Then make sure
# the artifacts actually landed and are non-empty, and that the run at
# 4 threads wrote byte-identical ones: the trace is on the simulated
# clock, so it must not depend on the thread count.
mkdir trace.1 trace.4
for t in 1 4; do
  (cd "trace.$t" && "$repro" --smoke --frames 2 --threads "$t" --trace trace.json)
done
for f in trace.json trace.occupancy.csv trace.overflows.csv trace.scan_cycles.csv trace.pairs.csv trace.rung.csv trace.reuse.csv trace.scan_skipped.csv trace.shed.csv trace.splice.csv trace.broadphase.csv; do
  [ -s "trace.1/$f" ] || { echo "trace smoke: missing or empty $f"; exit 1; }
  cmp -s "trace.1/$f" "trace.4/$f" \
    || { echo "trace smoke: $f differs between 1 and 4 threads"; exit 1; }
done
grep -q '"traceEvents"' trace.1/trace.json || { echo "trace smoke: no traceEvents key"; exit 1; }

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

# The timed A/B smokes: the span-mask hot path against the reference
# rasterizer, and the screen-space broad phase against an unpruned run.
# repro exits non-zero unless the two arms agree on every result the
# layer may not move, across thread counts, reuse, fault storms, a
# governed budget and the batch service, and unless they really ran
# different modes. On top of that, guard against a wall-clock
# regression: the on arm must never be slower than the off arm it
# replaced.
for ab in hotpath:BENCH_raster_hotpath.json broadphase:BENCH_broadphase.json; do
  id=${ab%%:*} artifact=${ab#*:}
  echo "== $id A/B smoke (repro --smoke $id) =="
  "$repro" --smoke "$id"
  [ -s "$artifact" ] || { echo "$id smoke: missing $artifact"; exit 1; }
  grep -q '"identical_results": true' "$artifact" \
    || { echo "$id smoke: the on arm was not result-identical to the off arm"; exit 1; }
  geo=$(sed -n 's/.*"speedup_geomean": \([0-9.]*\).*/\1/p' "$artifact")
  [ -n "$geo" ] || { echo "$id smoke: no speedup_geomean in $artifact"; exit 1; }
  awk -v g="$geo" 'BEGIN { exit (g >= 1.0) ? 0 : 1 }' \
    || { echo "$id smoke: the on arm was slower than the off arm (geomean ${geo}x)"; exit 1; }
done

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
# Admits 9 staggered sessions (mixed reuse/fault/governor policies) plus
# deliberate over-capacity and empty-clip submissions, serves them at
# 1/2/4 workers, and byte-compares every session's artifact against its
# solo run in-process; repro exits non-zero on any interference or
# ledger leak. On top of that, the report itself must be deterministic:
# it holds simulated results only, so runs at 1, 2, and 4 threads must
# land byte-identical BENCH_multi_session.json artifacts.
"$repro" serve --smoke --threads 1
[ -s BENCH_multi_session.json ] || { echo "serve smoke: missing BENCH_multi_session.json"; exit 1; }
grep -q '"interference_free": true' BENCH_multi_session.json \
  || { echo "serve smoke: cross-session interference detected"; exit 1; }
grep -q '"leak_free": true' BENCH_multi_session.json \
  || { echo "serve smoke: admission ledger leaked a session"; exit 1; }
cp BENCH_multi_session.json serve.1.json
for t in 2 4; do
  "$repro" serve --smoke --threads "$t"
  cmp -s serve.1.json BENCH_multi_session.json \
    || { echo "serve smoke: session report diverged at $t threads"; exit 1; }
done

echo "OK: lint + build + tests + smokes all passed"
