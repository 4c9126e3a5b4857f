// EXP-RIB — batched all-destination routing tables vs per-destination
// solvers.
//
// Four workloads behind one report:
//   1. cold table build on a 1024-node Gao–Rexford internet: one batched
//      RibSolver::solve over a 64-destination subset vs 64 independent
//      standalone dyn::Solver(Bellman) cold solves. Columns are
//      byte-compared before anything is timed — a divergence aborts with
//      exit 1. The ratio is the headline speedup scripts/bench_gates.py
//      gates into BENCH_rib.json (≥ 3×).
//   2. warm multi-destination maintenance on a 10k-node Gao–Rexford
//      internet: arc-flap pairs absorbed warm (MRT_DYN on, one shared
//      invalidation pass) vs cold (toggle off, full batched re-solve),
//      with the per-destination affected-set stats the gate requires, the
//      RibSolver peak-RSS footprint, and a standalone warm baseline —
//      per-destination dyn solvers held warm through the same flap
//      sequence, with a bench-side assertion that every one of their
//      updates actually takes the warm path (rib.warm.baseline_warm).
//   3. SIMD cold builds on a depth-4 lex stack (4 words/column, pure
//      AddSat/MinWord programs): the same batched solve with MRT_SIMD on
//      vs off, byte-compared (rib.simd_invariant) and gated ≥ 1.5×
//      (speedup.rib.simd) — the select_block-dominated workload the
//      vertical-lane kernels were built for.
//   4. invariance sweeps on a smaller internet: the same delta sequence
//      under MRT_THREADS ∈ {1,4}, MRT_DYN ∈ {on,off}, and MRT_COMPILE
//      (WeightEngine present/absent) must produce byte-identical columns;
//      each axis reports a 0/1 metric the gate pins to 1, so the shell
//      side needs no stdout diffing.
#include "bench_util.hpp"

#include <sys/resource.h>

#include <memory>

#include "mrt/compile/simd.hpp"
#include "mrt/dyn/solver.hpp"
#include "mrt/rib/rib.hpp"
#include "mrt/sim/scenario.hpp"

namespace mrt {
namespace {

using bench::fmt;
using bench::same_routing;
using bench::time_ab_ms;
using bench::time_ms;

/// `k` destinations spread evenly over [0, n): deterministic, no RNG state
/// shared with the topology generator.
std::vector<int> spread_dests(int n, int k) {
  std::vector<int> d;
  for (int i = 0; i < k; ++i) {
    d.push_back(static_cast<int>((static_cast<long>(i) * n) / k));
  }
  return d;
}

/// Runs `n_flaps` arc_down/arc_up pairs through `rib` with the dyn toggle
/// forced to `warm`; arcs cycle deterministically. Returns the mean
/// affected fraction (in %) across the warm updates that changed arcs.
double flap_loop(rib::RibSolver& rib, int n_flaps, bool warm,
                 double* max_pct = nullptr) {
  const bool before = dyn::enabled();
  dyn::set_enabled(warm);
  const int m = rib.net().graph().num_arcs();
  const int n = rib.net().num_nodes();
  double sum_pct = 0.0;
  long counted = 0;
  for (int i = 0; i < n_flaps; ++i) {
    const int arc = (i * 7919) % m;
    for (const bool down : {true, false}) {
      dyn::TopologyDelta d;
      if (down) {
        d.arc_down(arc);
      } else {
        d.arc_up(arc);
      }
      rib.update(d);
      const rib::RibStats& st = rib.last_update();
      if (st.changed_arcs == 0) continue;
      sum_pct += 100.0 * st.affected_mean_fraction();
      ++counted;
      if (max_pct != nullptr && n > 0) {
        const double mx =
            100.0 * static_cast<double>(st.affected_max()) / n;
        if (mx > *max_pct) *max_pct = mx;
      }
    }
  }
  dyn::set_enabled(before);
  return counted > 0 ? sum_pct / static_cast<double>(counted) : 0.0;
}

/// One full run of the invariance workload under explicit toggles: cold
/// solve + a deterministic flap sequence, materializing every column after
/// every update. Returns all snapshots for byte comparison.
std::vector<Routing> invariance_run(const Scenario& sc,
                                    const std::vector<int>& dests,
                                    bool with_engine, bool dyn_on,
                                    int threads) {
  const bool dyn_before = dyn::enabled();
  const int threads_before = par::thread_limit();
  dyn::set_enabled(dyn_on);
  par::set_thread_limit(threads);

  const compile::WeightEngine eng(sc.alg);
  rib::RibSolver rib(sc.alg, with_engine ? &eng : nullptr);
  rib.solve(sc.net, dests, sc.origin);
  std::vector<Routing> snaps;
  auto snapshot = [&] {
    for (int c = 0; c < rib.num_columns(); ++c) snaps.push_back(rib.routing(c));
  };
  snapshot();
  const int m = sc.net.graph().num_arcs();
  for (int i = 0; i < 6; ++i) {
    const int arc = (i * 7919) % m;
    rib.update(dyn::TopologyDelta{}.arc_down(arc));
    snapshot();
    rib.update(dyn::TopologyDelta{}.arc_up(arc));
    snapshot();
  }

  dyn::set_enabled(dyn_before);
  par::set_thread_limit(threads_before);
  return snaps;
}

bool same_snaps(const std::vector<Routing>& a, const std::vector<Routing>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_routing(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace
}  // namespace mrt

int main(int argc, char** argv) {
  using namespace mrt;
  bench::JsonReport report("perf_rib", argc, argv);
  bench::banner("EXP-RIB: batched routing tables vs per-destination solvers");

  Table table({"workload", "baseline_ms", "batched_ms", "speedup",
               "affected%"});
  bool ok = true;
  const int kReps = 5;

  // --- cold: one batched solve vs N independent solves (1024 nodes) ------
  {
    Rng rng(0x51B);
    Scenario sc = gao_rexford_hierarchy(rng, 1024, 512);
    const int kDests = 64;
    const std::vector<int> dests = spread_dests(sc.net.num_nodes(), kDests);
    const compile::WeightEngine eng(sc.alg);

    rib::RibSolver rib(sc.alg, &eng);
    rib.solve(sc.net, dests, sc.origin);
    report.metric("rib.flat", rib.batched_flat() ? 1.0 : 0.0);

    // Differential check before timing: every column must agree byte-wise
    // with a standalone Bellman solver given the same engine.
    auto single = dyn::make_solver(dyn::EngineKind::Bellman, sc.alg, &eng);
    for (int c = 0; c < kDests; ++c) {
      single->solve(sc.net, dests[static_cast<std::size_t>(c)], sc.origin);
      if (!same_routing(rib.routing(c), single->routing())) {
        std::cerr << "perf_rib: batched column " << c
                  << " diverged from a standalone solve (dest "
                  << dests[static_cast<std::size_t>(c)] << ")\n";
        ok = false;
      }
    }

    const auto [single_ms, batched_ms] = time_ab_ms(
        kReps,
        [&] {
          for (int d : dests) single->solve(sc.net, d, sc.origin);
        },
        [&] { rib.solve(sc.net, dests, sc.origin); });
    report.metric("speedup.rib.cold_batched", single_ms / batched_ms);
    table.add_row({"cold 1024n x 64 dests", fmt(single_ms), fmt(batched_ms),
                   fmt(single_ms / batched_ms), "-"});
  }

  // --- warm: multi-destination flap maintenance (10k nodes) --------------
  {
    Rng rng(0x51C);
    Scenario sc = gao_rexford_hierarchy(rng, 10000, 4000);
    const int kDests = 64;
    const int kFlaps = 8;
    const int kWarmReps = 2;  // each cold rep is 16 full 10k-node re-solves
    const std::vector<int> dests = spread_dests(sc.net.num_nodes(), kDests);
    const compile::WeightEngine eng(sc.alg);

    rib::RibSolver rib(sc.alg, &eng);
    const double cold_build_ms =
        time_ms(1, [&] { rib.solve(sc.net, dests, sc.origin); });
    report.metric("rib.cold_build_10k_ms", cold_build_ms);

    // Peak RSS sampled right after the all-64-column 10k build, before the
    // standalone baseline binds its own solvers: at this point the high
    // water mark is dominated by the RibSolver footprint the leaner block
    // layout is supposed to shrink. ru_maxrss is in KiB on Linux.
    {
      struct rusage ru {};
      getrusage(RUSAGE_SELF, &ru);
      report.metric("rib.peak_rss_mb",
                    static_cast<double>(ru.ru_maxrss) / 1024.0);
    }

    double max_pct = 0.0;
    const double affected_pct = flap_loop(rib, kFlaps, true, &max_pct);
    const auto [warm_ms, cold_ms] =
        time_ab_ms(kWarmReps, [&] { flap_loop(rib, kFlaps, true); },
                   [&] { flap_loop(rib, kFlaps, false); });
    report.metric("speedup.rib.warm_flaps", cold_ms / warm_ms);
    report.metric("rib.warm.affected_pct", affected_pct);
    report.metric("rib.warm.affected_max_pct", max_pct);
    table.add_row({"warm flaps 10000n x 64 dests", fmt(cold_ms), fmt(warm_ms),
                   fmt(cold_ms / warm_ms), fmt(affected_pct)});

    // Standalone warm baseline: per-destination dyn solvers held warm
    // through the same flap sequence, with a bench-side assertion that
    // every changed-arc update really takes the warm path (cold fallbacks
    // would silently inflate the batched speedup — the dyn.updates_cold
    // confusion this workload used to produce came from solve() calls
    // being counted as updates). Binding 64 standalone solvers to the
    // 10k-node net would dwarf the RIB's own footprint, so the baseline
    // holds a 16-destination subset and the speedup is per destination.
    {
      const int kBaseDests = 16;
      const bool dyn_before = dyn::enabled();
      dyn::set_enabled(true);
      std::vector<std::unique_ptr<Solver>> singles;
      for (int c = 0; c < kBaseDests; ++c) {
        singles.push_back(
            dyn::make_solver(dyn::EngineKind::Bellman, sc.alg, &eng));
        singles.back()->solve(sc.net, dests[static_cast<std::size_t>(c)],
                              sc.origin);
      }
      bool baseline_warm = true;
      const int m = sc.net.graph().num_arcs();
      auto single_flaps = [&] {
        for (int i = 0; i < kFlaps; ++i) {
          const int arc = (i * 7919) % m;
          for (const bool down : {true, false}) {
            dyn::TopologyDelta d;
            if (down) {
              d.arc_down(arc);
            } else {
              d.arc_up(arc);
            }
            for (auto& s : singles) {
              s->update(d);
              const dyn::UpdateStats& st = s->last_update();
              if (st.changed_arcs > 0 && st.cold) baseline_warm = false;
            }
          }
        }
      };
      const double single_warm_ms = time_ms(1, single_flaps);
      dyn::set_enabled(dyn_before);
      report.metric("rib.warm.baseline_warm", baseline_warm ? 1.0 : 0.0);
      const double per_dest =
          (single_warm_ms / kBaseDests) / (warm_ms / kDests);
      report.metric("speedup.rib.warm_batched", per_dest);
      table.add_row({"warm flaps standalone/dest",
                     fmt(single_warm_ms / kBaseDests), fmt(warm_ms / kDests),
                     fmt(per_dest), "-"});
      if (!baseline_warm) {
        std::cerr << "perf_rib: standalone warm baseline fell back to a "
                     "cold solve\n";
        ok = false;
      }
    }

    // Warm-drift check: after the flap storm every arc is back up, so the
    // warm-maintained table must match a fresh cold build byte for byte.
    rib::RibSolver fresh(sc.alg, &eng);
    fresh.solve(sc.net, dests, sc.origin);
    for (int c = 0; c < kDests; ++c) {
      if (!same_routing(rib.routing(c), fresh.routing(c))) {
        std::cerr << "perf_rib: warm-maintained column " << c
                  << " drifted from a fresh cold build\n";
        ok = false;
      }
    }
  }

  // --- simd: multi-column vertical lanes on a deep lex stack --------------
  {
    // stacked(4) lowers to four flat words of pure AddSat/MinWord per arc —
    // the vec-capable, select_block-dominated shape the lane kernels target.
    Rng rng(0x51E);
    Scenario sc = random_scenario(bench::stacked(4), bench::stacked_origin(4),
                                  rng, 1024, 2048);
    const int kDests = 64;
    const std::vector<int> dests = spread_dests(sc.net.num_nodes(), kDests);
    const compile::WeightEngine eng(sc.alg);
    rib::RibSolver rib(sc.alg, &eng);
    const bool simd_before = compile::simd::enabled();

    compile::simd::set_enabled(true);
    rib.solve(sc.net, dests, sc.origin);
    std::vector<Routing> on;
    for (int c = 0; c < kDests; ++c) on.push_back(rib.routing(c));

    compile::simd::set_enabled(false);
    rib.solve(sc.net, dests, sc.origin);
    std::vector<Routing> off;
    for (int c = 0; c < kDests; ++c) off.push_back(rib.routing(c));

    const auto [simd_ms, scalar_ms] = time_ab_ms(
        kReps,
        [&] {
          compile::simd::set_enabled(true);
          rib.solve(sc.net, dests, sc.origin);
        },
        [&] {
          compile::simd::set_enabled(false);
          rib.solve(sc.net, dests, sc.origin);
        });
    compile::simd::set_enabled(simd_before);

    const bool simd_inv = same_snaps(on, off);
    report.metric("speedup.rib.simd", scalar_ms / simd_ms);
    report.metric("rib.simd_invariant", simd_inv ? 1.0 : 0.0);
    table.add_row({"simd cold 1024n x 64 dests x 4w", fmt(scalar_ms),
                   fmt(simd_ms), fmt(scalar_ms / simd_ms), "-"});
    if (!simd_inv) {
      std::cerr << "perf_rib: MRT_SIMD on/off columns diverged\n";
      ok = false;
    }
  }

  // --- invariance: threads / dyn toggle / compile toggle ------------------
  {
    Rng rng(0x51D);
    Scenario sc = gao_rexford_hierarchy(rng, 256, 128);
    const std::vector<int> dests = spread_dests(sc.net.num_nodes(), 32);
    const std::vector<Routing> base =
        invariance_run(sc, dests, true, true, 1);
    const bool thread_inv =
        same_snaps(base, invariance_run(sc, dests, true, true, 4));
    const bool toggle_inv =
        same_snaps(base, invariance_run(sc, dests, true, false, 1));
    const bool compile_inv =
        same_snaps(base, invariance_run(sc, dests, false, true, 1));
    report.metric("rib.thread_invariant", thread_inv ? 1.0 : 0.0);
    report.metric("rib.toggle_invariant", toggle_inv ? 1.0 : 0.0);
    report.metric("rib.compile_invariant", compile_inv ? 1.0 : 0.0);
    if (!thread_inv) std::cerr << "perf_rib: thread-count invariance failed\n";
    if (!toggle_inv) std::cerr << "perf_rib: MRT_DYN invariance failed\n";
    if (!compile_inv) std::cerr << "perf_rib: MRT_COMPILE invariance failed\n";
    ok = ok && thread_inv && toggle_inv && compile_inv;
  }

  std::cout << table;
  report.metric("identical", ok ? 1.0 : 0.0);
  if (!ok) {
    std::cerr << "perf_rib: differential checks failed\n";
  }
  return ok ? 0 : 1;
}
