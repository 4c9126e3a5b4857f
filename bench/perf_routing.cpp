// EXP-PERF — scaling of the generic routing algorithms with graph size and
// algebra composition depth (google-benchmark).
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include "mrt/algebra/static_algebra.hpp"
#include "mrt/algebra/static_dijkstra.hpp"
#include "mrt/compile/engine.hpp"
#include "mrt/core/bases.hpp"
#include "mrt/core/combinators.hpp"
#include "mrt/graph/generators.hpp"
#include "mrt/routing/bellman.hpp"
#include "mrt/routing/dijkstra.hpp"
#include "mrt/routing/closure.hpp"
#include "mrt/routing/kbest.hpp"
#include "mrt/routing/minset.hpp"
#include "mrt/sim/path_vector.hpp"

namespace mrt {
namespace {

using bench::stacked;
using bench::stacked_origin;

void BM_Dijkstra(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int depth = static_cast<int>(state.range(1));
  const OrderTransform alg = stacked(depth);
  Rng rng(42);
  LabeledGraph net = label_randomly(alg, random_connected(rng, n, 2 * n), rng);
  const Value origin = stacked_origin(depth);
  for (auto _ : state) {
    Routing r = dijkstra(alg, net, 0, origin);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Dijkstra)
    ->ArgsProduct({{16, 64, 256}, {1, 2, 4}})
    ->Unit(benchmark::kMicrosecond);

// Boxed-vs-compiled pair for BM_Dijkstra: same graphs, same algebra stack,
// flat kernels via the WeightEngine seam.
void BM_DijkstraCompiled(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int depth = static_cast<int>(state.range(1));
  const OrderTransform alg = stacked(depth);
  Rng rng(42);
  LabeledGraph net = label_randomly(alg, random_connected(rng, n, 2 * n), rng);
  const Value origin = stacked_origin(depth);
  const compile::WeightEngine eng(alg);
  const compile::CompiledNet cn = compile::CompiledNet::make(eng, net);
  for (auto _ : state) {
    Routing r = dijkstra(alg, net, 0, origin, cn.ok() ? &cn : nullptr);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DijkstraCompiled)
    ->ArgsProduct({{16, 64, 256}, {1, 2, 4}})
    ->Unit(benchmark::kMicrosecond);

void BM_BellmanSync(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const OrderTransform alg = stacked(2);
  Rng rng(42);
  LabeledGraph net = label_randomly(alg, random_connected(rng, n, 2 * n), rng);
  const Value origin = stacked_origin(2);
  for (auto _ : state) {
    BellmanResult r = bellman_sync(alg, net, 0, origin);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BellmanSync)->Arg(16)->Arg(64)->Arg(256)->Unit(
    benchmark::kMicrosecond);

void BM_MinSetBellman(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  // Genuinely partial order: subsets with monotone mask-or functions.
  const OrderTransform alg{"sub", ord_subset_bits(3),
                           fam_table("or", 8,
                                     {{1, 1, 3, 3, 5, 5, 7, 7},
                                      {2, 3, 2, 3, 6, 7, 6, 7},
                                      {4, 5, 6, 7, 4, 5, 6, 7}}),
                           {}};
  Rng rng(42);
  LabeledGraph net = label_randomly(alg, random_connected(rng, n, n), rng);
  for (auto _ : state) {
    MinSetResult r = minset_bellman(alg, net, 0, Value::integer(0));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MinSetBellman)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_PathVectorSim(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const OrderTransform alg = ot_shortest_path(5);
  Rng rng(42);
  LabeledGraph net = label_randomly(alg, random_connected(rng, n, 2 * n), rng);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    SimOptions opts;
    opts.seed = seed++;
    PathVectorSim sim(alg, net, 0, Value::integer(0), opts);
    SimResult r = sim.run();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PathVectorSim)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_PathVectorSimCompiled(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const OrderTransform alg = ot_shortest_path(5);
  Rng rng(42);
  LabeledGraph net = label_randomly(alg, random_connected(rng, n, 2 * n), rng);
  const compile::WeightEngine eng(alg);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    SimOptions opts;
    opts.seed = seed++;
    PathVectorSim sim(alg, net, 0, Value::integer(0), opts, &eng);
    SimResult r = sim.run();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PathVectorSimCompiled)->Arg(16)->Arg(64)->Unit(
    benchmark::kMicrosecond);

// The static-vs-dynamic ablation: the same (delay, bandwidth) lex algebra,
// compile-time composed vs runtime-composed, on identical topologies.
void BM_StaticDijkstra(benchmark::State& state) {
  using SpBw = alg::Lex<alg::ShortestPath, alg::WidestPath>;
  const int n = static_cast<int>(state.range(0));
  Rng rng(42);
  Digraph g = random_connected(rng, n, 2 * n);
  std::vector<SpBw::label_type> labels;
  for (int id = 0; id < g.num_arcs(); ++id) {
    labels.push_back({static_cast<std::uint32_t>(rng.range(1, 6)),
                      static_cast<std::uint32_t>(rng.range(0, 6))});
  }
  const SpBw::value_type origin{0, alg::WidestPath::kUnlimited};
  for (auto _ : state) {
    auto r = alg::dijkstra<SpBw>(g, labels, 0, origin);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StaticDijkstra)->Arg(16)->Arg(64)->Arg(256)->Unit(
    benchmark::kMicrosecond);

void BM_DynamicDijkstraSameAlgebra(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const OrderTransform alg = lex(ot_shortest_path(6), ot_widest_path(6));
  Rng rng(42);
  Digraph g = random_connected(rng, n, 2 * n);
  ValueVec labels;
  for (int id = 0; id < g.num_arcs(); ++id) {
    labels.push_back(Value::pair(Value::integer(rng.range(1, 6)),
                                 Value::integer(rng.range(0, 6))));
  }
  LabeledGraph net(std::move(g), std::move(labels));
  const Value origin = Value::pair(Value::integer(0), Value::inf());
  for (auto _ : state) {
    Routing r = dijkstra(alg, net, 0, origin);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DynamicDijkstraSameAlgebra)->Arg(16)->Arg(64)->Arg(256)->Unit(
    benchmark::kMicrosecond);

void BM_KBestBellman(benchmark::State& state) {
  const int n = 32;
  const int k = static_cast<int>(state.range(0));
  const OrderTransform alg = ot_shortest_path(5);
  Rng rng(42);
  LabeledGraph net = label_randomly(alg, random_connected(rng, n, 2 * n), rng);
  for (auto _ : state) {
    KBestResult r = kbest_bellman(alg, net, 0, Value::integer(0), k);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_KBestBellman)->Arg(1)->Arg(4)->Arg(16)->Unit(
    benchmark::kMicrosecond);

void BM_KleeneClosure(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Bisemigroup sp = bs_shortest_path();
  Rng rng(42);
  Digraph g = random_connected(rng, n, 2 * n);
  ValueVec w;
  for (int id = 0; id < g.num_arcs(); ++id) {
    w.push_back(Value::integer(rng.range(1, 9)));
  }
  const WeightMatrix a = arc_matrix(sp, g, w);
  for (auto _ : state) {
    ClosureResult r = kleene_closure(sp, a);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_KleeneClosure)->Arg(16)->Arg(48)->Unit(benchmark::kMicrosecond);

void BM_LexApply(benchmark::State& state) {
  // Raw cost of one function application at composition depth d.
  const int depth = static_cast<int>(state.range(0));
  const OrderTransform alg = stacked(depth);
  Rng rng(7);
  const ValueVec labels = alg.fns->sample_labels(rng, 64);
  Value v = stacked_origin(depth);
  std::size_t i = 0;
  for (auto _ : state) {
    v = alg.fns->apply(labels[i++ % labels.size()], v);
    benchmark::DoNotOptimize(v);
    if (i % 64 == 0) v = stacked_origin(depth);  // avoid unbounded growth
  }
}
BENCHMARK(BM_LexApply)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_LexCompare(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const OrderTransform alg = stacked(depth);
  Rng rng(7);
  const ValueVec xs = alg.ord->sample(rng, 128);
  std::size_t i = 0;
  for (auto _ : state) {
    bool r = alg.ord->leq(xs[i % 128], xs[(i + 1) % 128]);
    benchmark::DoNotOptimize(r);
    ++i;
  }
}
BENCHMARK(BM_LexCompare)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace mrt

// Hand-rolled BENCHMARK_MAIN(): mrt::bench::JsonReport first strips the
// --json flag (google-benchmark rejects flags it does not know) and, on exit,
// dumps wall time plus the obs counters the instrumented solvers accumulated.
int main(int argc, char** argv) {
  mrt::bench::JsonReport report("perf_routing", argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
