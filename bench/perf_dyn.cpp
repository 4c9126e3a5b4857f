// EXP-DYN — delta-aware incremental recomputation vs cold re-solves.
//
// Two workloads behind one report:
//   1. single-flap updates on stacked-lex random networks: a solver absorbs
//      an arc_down/arc_up pair either warm (MRT_DYN on, affected-set
//      recompute) or cold (toggle off, full masked re-solve). Results are
//      byte-compared before anything is timed — a divergence aborts with
//      exit 1.
//   2. a flap-heavy chaos campaign run A/B with the toggle off and on, in
//      rounds interleaved with a no-truth base campaign: the verdict tables
//      must be byte-identical, and the warm run's wall clock is the headline
//      speedup that scripts/bench_gates.py gates into BENCH_dyn.json.
#include "bench_util.hpp"

#include <algorithm>

#include "mrt/chaos/campaign.hpp"
#include "mrt/core/bases.hpp"
#include "mrt/dyn/solver.hpp"
#include "mrt/graph/generators.hpp"
#include "mrt/sim/scenario.hpp"

namespace mrt {
namespace {

using bench::fmt;
using bench::same_routing;
using bench::time_ab_ms;
using bench::time_ms;

/// Runs `n_flaps` arc_down/arc_up pairs through `s`, with the dyn toggle
/// forced to `warm`. The arcs cycle deterministically over the network.
void flap_loop(Solver& s, int n_flaps, bool warm) {
  const bool before = dyn::enabled();
  dyn::set_enabled(warm);
  const int m = s.net().graph().num_arcs();
  for (int i = 0; i < n_flaps; ++i) {
    const int arc = (i * 7919) % m;
    s.update(dyn::TopologyDelta{}.arc_down(arc));
    s.update(dyn::TopologyDelta{}.arc_up(arc));
  }
  dyn::set_enabled(before);
}

const char* kind_name(dyn::EngineKind k) {
  return k == dyn::EngineKind::Dijkstra ? "dijkstra" : "bellman";
}

chaos::CampaignScenario flap_heavy_scenario() {
  Rng rng(0x1C4A);
  Scenario sc = random_scenario(ot_chain_add(192, 1, 3), Value::integer(0),
                                rng, 192, 64);
  chaos::CampaignScenario c;
  c.name = "flap_heavy_chain";
  c.alg = sc.alg;
  c.net = sc.net;
  c.dest = sc.dest;
  c.origin = sc.origin;
  c.sim.drop_top_routes = true;  // the saturated top is "unreachable"
  c.faults.max_faults = 12;      // flap-heavy: ~2× the headline fault load
  c.faults.min_faults = 4;
  c.global = chaos::GlobalCheck::On;
  return c;
}

}  // namespace
}  // namespace mrt

int main(int argc, char** argv) {
  using namespace mrt;
  bench::JsonReport report("perf_dyn", argc, argv);
  bench::banner("EXP-DYN: incremental updates vs cold re-solves");

  Table table({"workload", "cold_ms", "warm_ms", "speedup", "affected%"});
  bool ok = true;
  const int kReps = 5;
  const int kFlaps = 64;

  // --- single-flap updates, stacked-lex depths × both engines ------------
  for (int depth : {1, 3}) {
    const OrderTransform alg = bench::stacked(depth);
    const Value origin = bench::stacked_origin(depth);
    Rng rng(42);
    LabeledGraph net =
        label_randomly(alg, random_connected(rng, 192, 384), rng);

    for (dyn::EngineKind kind :
         {dyn::EngineKind::Dijkstra, dyn::EngineKind::Bellman}) {
      auto warm = dyn::make_solver(kind, alg);
      auto cold = dyn::make_solver(kind, alg);
      warm->solve(net, 0, origin);
      cold->solve(net, 0, origin);

      // Differential check before timing: every flap must agree byte-wise.
      double affected = 0.0;
      long warm_updates = 0;
      for (int i = 0; i < 16; ++i) {
        const int arc = (i * 7919) % net.graph().num_arcs();
        for (const bool down : {true, false}) {
          dyn::TopologyDelta d;
          if (down) {
            d.arc_down(arc);
          } else {
            d.arc_up(arc);
          }
          warm->update(d);
          dyn::set_enabled(false);
          cold->update(d);
          dyn::set_enabled(true);
          if (!same_routing(warm->routing(), cold->routing())) {
            std::cerr << "perf_dyn: warm update diverged from cold ("
                      << kind_name(kind) << " depth " << depth << " arc "
                      << arc << ")\n";
            ok = false;
          }
          affected += warm->last_update().affected_fraction();
          ++warm_updates;
        }
      }
      const double mean_affected =
          100.0 * affected / static_cast<double>(warm_updates);

      const auto [cold_ms, warm_ms] =
          time_ab_ms(kReps, [&] { flap_loop(*cold, kFlaps, false); },
                     [&] { flap_loop(*warm, kFlaps, true); });
      const std::string name =
          std::string(kind_name(kind)) + ".depth" + std::to_string(depth);
      report.metric("speedup.update." + name, cold_ms / warm_ms);
      report.metric("affected_pct." + name, mean_affected);
      table.add_row({"flap " + name, fmt(cold_ms), fmt(warm_ms),
                     fmt(cold_ms / warm_ms), fmt(mean_affected)});
    }
  }

  // --- flap-heavy chaos campaign, toggle off vs on -----------------------
  {
    const std::vector<chaos::CampaignScenario> scs = {flap_heavy_scenario()};
    chaos::CampaignConfig cfg;
    cfg.seed = 0xD9A;
    cfg.runs_per_scenario = 200;

    // The same campaign with the global-truth oracle disabled isolates the
    // fixed simulation cost; subtracting it gives the wall time of the truth
    // checks themselves — the component the dyn seam replaces, and a far
    // steadier gate than the end-to-end ratio (where the simulator noise
    // floor is on the order of the saving).
    std::vector<chaos::CampaignScenario> no_truth = scs;
    for (auto& c : no_truth) c.global = chaos::GlobalCheck::Off;
    // Cold (dyn off), warm (dyn on) and the no-truth base run in interleaved
    // rounds, each round running all three and rotating which goes first,
    // and each keeps its best round: a burst of host noise then lands on
    // every campaign alike instead of on whichever one ran through it.
    std::string table_cold, table_warm;
    double best[3] = {1e300, 1e300, 1e300};  // cold, warm, base
    for (int round = 0; round < 3; ++round) {
      for (int k = 0; k < 3; ++k) {
        const int which = (round + k) % 3;
        dyn::set_enabled(which != 0);
        const double ms = time_ms(1, [&] {
          if (which == 2) {
            (void)chaos::run_campaign(no_truth, cfg);
          } else {
            (which == 0 ? table_cold : table_warm) =
                chaos::run_campaign(scs, cfg).verdict_table();
          }
        });
        best[which] = std::min(best[which], ms);
      }
    }
    dyn::set_enabled(true);
    const double chaos_cold = best[0];
    const double chaos_warm = best[1];
    const double chaos_base = best[2];
    if (table_cold != table_warm) {
      std::cerr << "perf_dyn: chaos verdict table depends on the dyn toggle\n"
                << table_cold << "\n--- vs ---\n" << table_warm;
      ok = false;
    }
    const double check_cold = chaos_cold - chaos_base;
    const double check_warm = chaos_warm - chaos_base;
    // A warm campaign at or below the base is noise, not an infinite
    // speedup: report 0 so the gate fails instead of passing on it.
    double truth_speedup = 0.0;
    if (check_warm > 0.0) {
      truth_speedup = check_cold / check_warm;
    } else {
      std::cerr << "perf_dyn: warm chaos campaign (" << fmt(chaos_warm)
                << " ms) not slower than its no-truth base ("
                << fmt(chaos_base)
                << " ms); chaos_truth_check reported as 0\n";
    }
    report.metric("speedup.chaos_flaps", chaos_cold / chaos_warm);
    report.metric("speedup.chaos_truth_check", truth_speedup);
    report.metric("chaos_verdicts_identical", table_cold == table_warm);
    table.add_row({"chaos flap-heavy campaign", fmt(chaos_cold),
                   fmt(chaos_warm), fmt(chaos_cold / chaos_warm), "-"});
    table.add_row({"chaos truth checks alone", fmt(check_cold),
                   fmt(check_warm), fmt(truth_speedup), "-"});
  }

  std::cout << table;
  report.metric("identical", ok ? 1.0 : 0.0);
  if (!ok) {
    std::cerr << "perf_dyn: differential checks failed\n";
  }
  return ok ? 0 : 1;
}
