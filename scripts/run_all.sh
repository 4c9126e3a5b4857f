#!/usr/bin/env bash
# Build, test, and regenerate every experiment.
#
# Usage: scripts/run_all.sh [tsan|asan] [--preset <name>] [--labels <regex>]
#   tsan — build with -DMRT_SANITIZE=thread into build-tsan and run the
#          concurrency-sensitive suites (mrt::par, the simulator, the
#          compiled kernels and the row-parallel closures) under
#          ThreadSanitizer with MRT_THREADS=4, then exit.
#   asan — build with -DMRT_SANITIZE=address,undefined into build-asan and
#          run the chaos campaigns, the simulator suites, the batched
#          routing tables (rib + the dyn seam under them), the label-family
#          membership suite and the serve tier under AddressSanitizer +
#          UBSan, then exit.
#   --preset dyn — tsan build focused on the incremental solvers: runs the
#          mrt::dyn seam suites plus the differential property suite under
#          ThreadSanitizer with MRT_THREADS=4, then exit.
#   --preset obs — tsan build focused on the flight recorder: runs the
#          journal, provenance, and metrics suites with MRT_JOURNAL=1 under
#          ThreadSanitizer with MRT_THREADS=4 (per-thread rings drained
#          mid-run is exactly the race surface), then exit.
#   --preset rib — tsan build focused on the batched routing tables: runs
#          the mrt::rib differential and unit suites (plus the dyn seam
#          they build on) under ThreadSanitizer with MRT_THREADS=4 and
#          MRT_SIMD=1 — destination blocks stolen in LPT order writing
#          shared stats, with the vectorized vertical relax inside each
#          block, is the race surface — then exit.
#   --preset adv — tsan build focused on the adversarial schedulers: runs
#          the mrt::adv certificate/shrinker suites plus the simulator core
#          under ThreadSanitizer with MRT_THREADS=4 (the triple property
#          suite fans out over mrt::par workers while adversarial schedulers
#          mutate per-arc state — exactly the race surface), then exit.
#   --preset serve — tsan build focused on the routing daemon: runs the
#          delta-stream + daemon suites under ThreadSanitizer with
#          MRT_THREADS=4 — the drain loop feeds warm RibSolver updates whose
#          destination blocks are stolen across workers, each diffing its
#          dirty lanes into its own change list — then exit.
#   --labels <regex> — only run ctest tests whose label matches (unit,
#          property, chaos, adv, perf, serve, example); see
#          tests/CMakeLists.txt and examples/CMakeLists.txt.
set -euo pipefail
cd "$(dirname "$0")/.."

LABELS=""
PRESET=""
ARGS=()
while [ "$#" -gt 0 ]; do
  case "$1" in
    --labels)
      LABELS="${2:?run_all.sh: --labels needs a regex}"
      shift 2
      ;;
    --preset)
      PRESET="${2:?run_all.sh: --preset needs a name}"
      shift 2
      ;;
    *)
      ARGS+=("$1")
      shift
      ;;
  esac
done

if [ -n "$PRESET" ]; then
  case "$PRESET" in
    dyn)
      # Incremental-solver focus: the dyn seam mutates routing state in place
      # across updates, and the chaos oracles clone solvers across worker
      # threads, so the whole surface runs under ThreadSanitizer.
      cmake -B build-tsan -DMRT_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
      cmake --build build-tsan -j "$(nproc)" \
        --target mrt_tests mrt_property_tests
      MRT_THREADS=4 ctest --test-dir build-tsan --output-on-failure \
        -R 'TopologyDelta|DynNet|SolverSeam|SimDeltaBridge|CompiledNetRelabel|DynDifferential'
      echo "dyn preset passed"
      exit 0
      ;;
    obs)
      # Flight-recorder focus: producers append to per-thread rings while
      # the main thread drains, and the concurrent-gauge/journal tests race
      # on purpose — the whole observability surface runs under
      # ThreadSanitizer with the journal forced on.
      cmake -B build-tsan -DMRT_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
      cmake --build build-tsan -j "$(nproc)" \
        --target mrt_tests mrt_property_tests
      MRT_JOURNAL=1 MRT_THREADS=4 ctest --test-dir build-tsan \
        --output-on-failure \
        -R 'Journal|Provenance|ObsMetrics|ObsQuantile|ObsJson|ObsTrace'
      echo "obs preset passed"
      exit 0
      ;;
    rib)
      # Batched routing-table focus: destination blocks are stolen in
      # LPT order through par::parallel_steal and write per-column stats
      # into shared arrays, so the whole batched surface (and the dyn
      # seam under it) runs under ThreadSanitizer with more threads than
      # blocks. MRT_SIMD=1 keeps the vectorized vertical relax (and its
      # slot-major reshapes) on the race surface alongside the stealing
      # scheduler.
      cmake -B build-tsan -DMRT_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
      cmake --build build-tsan -j "$(nproc)" \
        --target mrt_tests mrt_property_tests
      MRT_SIMD=1 MRT_THREADS=4 ctest --test-dir build-tsan --output-on-failure \
        -R 'Rib|DynDifferential|SolverSeam'
      echo "rib preset passed"
      exit 0
      ;;
    adv)
      # Adversarial-scheduler focus: the triple property suite runs
      # certificate sweeps across mrt::par workers while each worker's
      # scheduler mutates per-arc reorder/starvation state, and the campaign
      # schedule axis shares verdict accumulators — run the adv tier and the
      # simulator core under ThreadSanitizer.
      cmake -B build-tsan -DMRT_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
      cmake --build build-tsan -j "$(nproc)" \
        --target mrt_tests mrt_adv_tests
      MRT_THREADS=4 ctest --test-dir build-tsan --output-on-failure -L adv
      MRT_THREADS=4 ctest --test-dir build-tsan --output-on-failure \
        -R 'Sim|PathVector|EventQueue'
      echo "adv preset passed"
      exit 0
      ;;
    serve)
      # Routing-daemon focus: drain() pushes warm updates through the batched
      # RibSolver (block stealing across workers, each block diffing its
      # dirty lanes against its published copy), so the whole stream→daemon
      # path runs under ThreadSanitizer.
      cmake -B build-tsan -DMRT_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
      cmake --build build-tsan -j "$(nproc)" \
        --target mrt_tests mrt_serve_tests
      MRT_THREADS=4 ctest --test-dir build-tsan --output-on-failure -L serve
      echo "serve preset passed"
      exit 0
      ;;
    *)
      echo "run_all.sh: unknown preset '$PRESET' (known: dyn, obs, rib, adv, serve)" >&2
      exit 2
      ;;
  esac
fi

if [ "${ARGS[0]:-}" = "tsan" ]; then
  cmake -B build-tsan -DMRT_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$(nproc)" --target mrt_tests mrt_perf_tests
  MRT_THREADS=4 ctest --test-dir build-tsan --output-on-failure \
    -R 'Par|Sim|PathVector|EventQueue|Compile|Closure'
  echo "tsan preset passed"
  exit 0
fi

if [ "${ARGS[0]:-}" = "asan" ]; then
  cmake -B build-asan -DMRT_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$(nproc)" --target mrt_tests mrt_chaos_tests \
    mrt_property_tests mrt_serve_tests
  # The chaos tier exercises the fault injectors and oracles end to end;
  # the simulator suites cover the event queue and protocol core.
  ctest --test-dir build-asan --output-on-failure -L chaos
  ctest --test-dir build-asan --output-on-failure \
    -R 'Sim|PathVector|EventQueue'
  # The routing tables, the daemon and the label families: a bad label
  # must be refused before any wrong-kind Value accessor runs on it, and a
  # rejected batch must leave every table untouched.
  ctest --test-dir build-asan --output-on-failure -L serve
  ctest --test-dir build-asan --output-on-failure \
    -R 'Rib|DynNet|DynDifferential|SolverSeam|FnFamily'
  echo "asan preset passed"
  exit 0
fi

if [ -f build/CMakeCache.txt ]; then
  cmake -B build  # already configured: keep whatever generator the cache has
elif command -v ninja > /dev/null 2>&1; then
  cmake -B build -G Ninja
else
  cmake -B build  # no ninja: fall back to the platform default generator
fi
cmake --build build -j "$(nproc)"
if [ -n "$LABELS" ]; then
  ctest --test-dir build --output-on-failure -j "$(nproc)" -L "$LABELS"
  exit 0
fi
ctest --test-dir build --output-on-failure -j "$(nproc)"
# The examples ran above as ctest tests (label `example`). Run the benches
# bench/CMakeLists.txt declares, not every binary under build/bench/: a
# removed bench's binary outlives its target there.
mapfile -t benches < build/bench/benches.txt
for b in "${benches[@]}"; do
  "build/bench/$b"
done
