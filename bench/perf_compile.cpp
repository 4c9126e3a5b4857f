// EXP-COMPILE — boxed interpreter vs compiled flat kernels on the two
// compiled paths outside the routing tables: generalized Dijkstra (dyn's
// cold solve and the chaos truth) and the path-vector simulator.
//
// The Dijkstra workload first differentially verifies that the compiled run
// produces the identical result; both workloads then time the two paths in
// interleaved best-of rounds and report speedup.* metrics into
// BENCH_compile.json. The bench aborts (exit 1) if any paper algebra falls
// back to boxed — compile.fallbacks must stay 0 here, which
// scripts/bench_gates.py gates.
#include "bench_util.hpp"

#include "mrt/compile/engine.hpp"
#include "mrt/graph/generators.hpp"
#include "mrt/routing/dijkstra.hpp"
#include "mrt/sim/path_vector.hpp"

namespace mrt {
namespace {

using bench::fmt;
using bench::same_routing;
using bench::time_ab_ms;
using compile::CompiledNet;
using compile::WeightEngine;

}  // namespace
}  // namespace mrt

int main(int argc, char** argv) {
  using namespace mrt;
  bench::JsonReport report("perf_compile", argc, argv);
  bench::banner("EXP-COMPILE: boxed interpreter vs compiled flat kernels");

  Table table({"workload", "boxed_ms", "compiled_ms", "speedup"});
  bool ok = true;
  const int kReps = 5;

  // Generalized Dijkstra over deep-lex stacks.
  for (int depth : {1, 2, 3, 4}) {
    const OrderTransform alg = bench::stacked(depth);
    const Value origin = bench::stacked_origin(depth);
    Rng rng(42);
    LabeledGraph net =
        label_randomly(alg, random_connected(rng, 192, 384), rng);
    const WeightEngine eng(alg);
    if (!eng.compiled()) {
      std::cerr << "perf_compile: " << alg.name << " fell back: "
                << compile::fallback_name(eng.fallback()) << "\n";
      ok = false;
      continue;
    }
    const CompiledNet cn = CompiledNet::make(eng, net);
    if (!cn.ok()) {
      std::cerr << "perf_compile: a label of " << alg.name
                << " fell back to boxed\n";
      ok = false;
      continue;
    }
    if (!same_routing(dijkstra(alg, net, 0, origin),
                      dijkstra(alg, net, 0, origin, &cn))) {
      std::cerr << "perf_compile: compiled dijkstra diverged from boxed at "
                << "depth " << depth << "\n";
      ok = false;
      continue;
    }
    const auto [dj_boxed, dj_flat] = time_ab_ms(
        kReps,
        [&] {
          for (int i = 0; i < 10; ++i) {
            Routing r = dijkstra(alg, net, 0, origin);
            (void)r;
          }
        },
        [&] {
          for (int i = 0; i < 10; ++i) {
            Routing r = dijkstra(alg, net, 0, origin, &cn);
            (void)r;
          }
        });
    const std::string d = std::to_string(depth);
    report.metric("speedup.dijkstra.depth" + d, dj_boxed / dj_flat);
    table.add_row({"dijkstra depth " + d, fmt(dj_boxed),
               fmt(dj_flat), fmt(dj_boxed / dj_flat)});
  }

  // The asynchronous simulator, whose reselect loop dominates chaos
  // campaigns.
  {
    const OrderTransform alg = bench::stacked(3);
    const Value origin = bench::stacked_origin(3);
    Rng rng(42);
    LabeledGraph net = label_randomly(alg, random_connected(rng, 48, 96), rng);
    const WeightEngine eng(alg);
    const auto [sim_boxed, sim_flat] = time_ab_ms(
        kReps,
        [&] {
          for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            SimOptions opts;
            opts.seed = seed;
            PathVectorSim sim(alg, net, 0, origin, opts);
            SimResult r = sim.run();
            (void)r;
          }
        },
        [&] {
          for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            SimOptions opts;
            opts.seed = seed;
            PathVectorSim sim(alg, net, 0, origin, opts, &eng);
            SimResult r = sim.run();
            (void)r;
          }
        });
    report.metric("speedup.sim.depth3", sim_boxed / sim_flat);
    table.add_row({"path-vector sim depth 3", fmt(sim_boxed),
               fmt(sim_flat),
               fmt(sim_boxed / sim_flat)});
  }

  std::cout << table;

  // Fallback accounting: every workload above must have compiled.
  const std::uint64_t fallbacks =
      obs::registry().counter_value("compile.fallbacks") +
      obs::registry().counter_value("compile.fallback.bad_label");
  report.metric("fallbacks", static_cast<double>(fallbacks));
  report.metric("all_compiled", ok && fallbacks == 0 ? 1.0 : 0.0);
  if (fallbacks != 0) {
    std::cerr << "perf_compile: " << fallbacks
              << " fallback(s) — paper algebras must all compile\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
