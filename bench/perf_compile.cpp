// EXP-COMPILE — boxed interpreter vs compiled flat kernels on the routing
// hot loops.
//
// Every workload first differentially verifies that the compiled run
// produces the identical result, then times both paths and reports
// speedup.* metrics into BENCH_compile.json. The bench aborts (exit 1) if
// any paper algebra falls back to boxed — compile.fallbacks must stay 0
// here, which scripts/bench_gates.py gates.
#include "bench_util.hpp"

#include "mrt/compile/engine.hpp"
#include "mrt/compile/semiring.hpp"
#include "mrt/graph/generators.hpp"
#include "mrt/routing/bellman.hpp"
#include "mrt/routing/closure.hpp"
#include "mrt/routing/dijkstra.hpp"
#include "mrt/sim/path_vector.hpp"

namespace mrt {
namespace {

using bench::fmt;
using bench::same_routing;
using bench::time_ms;
using compile::CompiledBisemigroup;
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

  // Generalized Dijkstra and synchronous Bellman–Ford over deep-lex stacks.
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
    const double dj_boxed = time_ms(kReps, [&] {
      for (int i = 0; i < 10; ++i) {
        Routing r = dijkstra(alg, net, 0, origin);
        (void)r;
      }
    });
    const double dj_flat = time_ms(kReps, [&] {
      for (int i = 0; i < 10; ++i) {
        Routing r = dijkstra(alg, net, 0, origin, &cn);
        (void)r;
      }
    });
    const std::string d = std::to_string(depth);
    report.metric("speedup.dijkstra.depth" + d, dj_boxed / dj_flat);
    table.add_row({"dijkstra depth " + d, fmt(dj_boxed),
               fmt(dj_flat), fmt(dj_boxed / dj_flat)});

    const BellmanResult bb = bellman_sync(alg, net, 0, origin);
    const BellmanResult bf = bellman_sync(alg, net, 0, origin, {}, &cn);
    if (!same_routing(bb.routing, bf.routing) ||
        bb.iterations != bf.iterations) {
      std::cerr << "perf_compile: compiled bellman diverged from boxed at "
                << "depth " << depth << "\n";
      ok = false;
      continue;
    }
    const double bm_boxed = time_ms(kReps, [&] {
      BellmanResult r = bellman_sync(alg, net, 0, origin);
      (void)r;
    });
    const double bm_flat = time_ms(kReps, [&] {
      BellmanResult r = bellman_sync(alg, net, 0, origin, {}, &cn);
      (void)r;
    });
    report.metric("speedup.bellman.depth" + d, bm_boxed / bm_flat);
    table.add_row({"bellman depth " + d, fmt(bm_boxed),
               fmt(bm_flat),
               fmt(bm_boxed / bm_flat)});
  }

  // Kleene closure over the lex bisemigroup (Theorem 2's compiled case split).
  {
    const Bisemigroup alg = lex(bs_shortest_path(), bs_widest_path());
    const CompiledBisemigroup cb = CompiledBisemigroup::compile(alg);
    if (!cb.ok()) {
      std::cerr << "perf_compile: " << alg.name << " fell back: "
                << compile::fallback_name(cb.fallback()) << "\n";
      ok = false;
    } else {
      Rng rng(42);
      Digraph g = random_connected(rng, 64, 160);
      ValueVec w;
      for (int id = 0; id < g.num_arcs(); ++id) {
        w.push_back(Value::pair(Value::integer(rng.range(1, 9)),
                                Value::integer(rng.range(0, 9))));
      }
      const WeightMatrix a = arc_matrix(alg, g, w);
      const double cl_boxed = time_ms(kReps, [&] {
        ClosureResult r = kleene_closure(alg, a);
        (void)r;
      });
      const double cl_flat = time_ms(kReps, [&] {
        ClosureResult r = kleene_closure(alg, a, &cb);
        (void)r;
      });
      report.metric("speedup.closure.lex", cl_boxed / cl_flat);
      table.add_row({"kleene closure lex", fmt(cl_boxed),
                 fmt(cl_flat),
                 fmt(cl_boxed / cl_flat)});
    }
  }

  // The asynchronous simulator, whose reselect loop dominates chaos
  // campaigns.
  {
    const OrderTransform alg = bench::stacked(3);
    const Value origin = bench::stacked_origin(3);
    Rng rng(42);
    LabeledGraph net = label_randomly(alg, random_connected(rng, 48, 96), rng);
    const WeightEngine eng(alg);
    const double sim_boxed = time_ms(kReps, [&] {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SimOptions opts;
        opts.seed = seed;
        PathVectorSim sim(alg, net, 0, origin, opts);
        SimResult r = sim.run();
        (void)r;
      }
    });
    const double sim_flat = time_ms(kReps, [&] {
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
