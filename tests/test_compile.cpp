// mrt::compile correctness: the flat kernels are differentially identical to
// the boxed interpreter.
//
//   - encode/decode round-trips losslessly on every carrier element reached;
//   - compare/is_top/apply agree with ord->cmp / ord->is_top / fns->apply on
//     ≥1000 random finite algebras plus the paper algebras at depth;
//   - compiled Dijkstra and the compiled simulator produce results
//     identical to their boxed twins;
//   - every paper algebra used by the benches compiles (fallback == none).
//
// Everything is seeded; nothing here depends on MRT_THREADS (the campaign
// thread-invariance suite in test_chaos.cpp now runs compiled by default).
#include <gtest/gtest.h>

#include <cstdlib>

#include "mrt/chaos/campaign.hpp"
#include "mrt/compile/engine.hpp"
#include "mrt/core/bases.hpp"
#include "mrt/core/combinators.hpp"
#include "mrt/core/random_algebra.hpp"
#include "mrt/graph/generators.hpp"
#include "mrt/par/par.hpp"
#include "mrt/routing/dijkstra.hpp"
#include "mrt/sim/path_vector.hpp"

namespace mrt {
namespace {

using compile::CompiledAlgebra;
using compile::CompiledNet;
using compile::Fallback;
using compile::WeightEngine;

// Deep-lex stack mirroring bench/bench_util.hpp's workload.
OrderTransform stacked(int depth) {
  OrderTransform alg = ot_shortest_path(6);
  for (int i = 1; i < depth; ++i) {
    alg = lex(alg, i % 2 == 0 ? ot_shortest_path(6) : ot_widest_path(6));
  }
  return alg;
}

Value stacked_origin(int depth) {
  Value v = Value::integer(0);
  for (int i = 1; i < depth; ++i) {
    v = Value::pair(std::move(v),
                    i % 2 == 0 ? Value::integer(0) : Value::inf());
  }
  return v;
}

// Differentially checks one compiled algebra on the given carrier elements
// and labels (gtest ASSERTs force a void return).
void check_kernels(const OrderTransform& alg, const CompiledAlgebra& ca,
                   const ValueVec& values, const ValueVec& labels) {
  std::vector<std::uint64_t> wa(static_cast<std::size_t>(ca.words()));
  std::vector<std::uint64_t> wb(static_cast<std::size_t>(ca.words()));
  for (const Value& v : values) {
    ASSERT_TRUE(ca.encode(v, wa.data())) << v.to_string() << " in " << alg.name;
    EXPECT_TRUE(ca.decode(wa.data()) == v)
        << "round-trip mangled " << v.to_string() << " into "
        << ca.decode(wa.data()).to_string() << " in " << alg.name;
    EXPECT_EQ(ca.is_top(wa.data()), alg.ord->is_top(v))
        << "is_top(" << v.to_string() << ") in " << alg.name;
  }
  for (const Value& x : values) {
    ASSERT_TRUE(ca.encode(x, wa.data()));
    for (const Value& y : values) {
      ASSERT_TRUE(ca.encode(y, wb.data()));
      EXPECT_EQ(ca.compare(wa.data(), wb.data()), alg.ord->cmp(x, y))
          << "cmp(" << x.to_string() << ", " << y.to_string() << ") in "
          << alg.name;
    }
  }
  for (const Value& f : labels) {
    const compile::CompiledLabel cl = ca.compile_label(f);
    ASSERT_TRUE(cl.ok) << "label " << f.to_string() << " in " << alg.name;
    for (const Value& v : values) {
      ASSERT_TRUE(ca.encode(v, wa.data()));
      ca.apply(cl, wa.data());
      const Value boxed = alg.fns->apply(f, v);
      EXPECT_TRUE(ca.decode(wa.data()) == boxed)
          << "apply(" << f.to_string() << ", " << v.to_string() << ") in "
          << alg.name;
    }
  }
}

TEST(CompileProperty, RandomFiniteAlgebrasRoundTripAndAgree) {
  long algebras = 0;
  long checks = 0;
  for (std::uint64_t seed = 0; seed < 1100; ++seed) {
    Rng rng(par::mix_seed(0xC0117'1EDULL, seed));
    const OrderTransform alg = random_order_transform(rng);
    const CompiledAlgebra ca = CompiledAlgebra::compile(alg);
    // Random transforms are finite-table orders with finite-table families:
    // squarely inside the compilable fragment.
    ASSERT_TRUE(ca.ok()) << alg.name << " fell back: "
                         << compile::fallback_name(ca.fallback());
    const ValueVec values = alg.ord->sample(rng, 8);
    const ValueVec labels = alg.fns->sample_labels(rng, 4);
    check_kernels(alg, ca, values, labels);
    ++algebras;
    checks += 8 + 8 * 8 + 4 * 8;
  }
  EXPECT_GE(algebras, 1000);
  EXPECT_GE(checks, 1000);
}

// Values reached from the origin by label application — the exact population
// the routing hot loops move through the kernels.
ValueVec reachable_values(const OrderTransform& alg, const Value& origin,
                          Rng& rng, int count) {
  ValueVec out{origin};
  const ValueVec labels = alg.fns->sample_labels(rng, 16);
  Value v = origin;
  for (int i = 1; i < count; ++i) {
    v = alg.fns->apply(labels[rng.range(0, static_cast<int>(labels.size()) - 1)],
                       v);
    out.push_back(v);
    if (i % 8 == 0) v = origin;  // restart to keep values spread out
  }
  return out;
}

TEST(CompileProperty, PaperAlgebrasCompileAndAgreeAtDepth) {
  struct Case {
    OrderTransform alg;
    Value origin;
  };
  std::vector<Case> cases;
  for (int d = 1; d <= 4; ++d) {
    cases.push_back({stacked(d), stacked_origin(d)});
  }
  cases.push_back({ot_hop_count(), Value::integer(0)});
  cases.push_back({ot_reliability(), Value::real(1.0)});
  cases.push_back({ot_chain_add(8, 1, 3), Value::integer(0)});
  cases.push_back({add_top(ot_shortest_path(6)), Value::integer(0)});
  cases.push_back(
      {lex_omega(ot_shortest_path(6), ot_widest_path(6)),
       Value::pair(Value::integer(0), Value::inf())});

  for (const Case& c : cases) {
    const CompiledAlgebra ca = CompiledAlgebra::compile(c.alg);
    ASSERT_TRUE(ca.ok()) << c.alg.name << " fell back: "
                         << compile::fallback_name(ca.fallback());
    Rng rng(99);
    const ValueVec values = reachable_values(c.alg, c.origin, rng, 24);
    const ValueVec labels = c.alg.fns->sample_labels(rng, 6);
    check_kernels(c.alg, ca, values, labels);
  }
}

void expect_same_routing(const Routing& a, const Routing& b) {
  ASSERT_EQ(a.weight.size(), b.weight.size());
  for (std::size_t v = 0; v < a.weight.size(); ++v) {
    EXPECT_EQ(a.weight[v].has_value(), b.weight[v].has_value()) << "node " << v;
    if (a.weight[v] && b.weight[v]) {
      EXPECT_TRUE(*a.weight[v] == *b.weight[v])
          << "node " << v << ": " << a.weight[v]->to_string() << " vs "
          << b.weight[v]->to_string();
    }
    EXPECT_EQ(a.next_arc[v], b.next_arc[v]) << "node " << v;
  }
}

TEST(CompileSolvers, DijkstraAndBellmanMatchBoxedExactly) {
  for (int depth : {1, 2, 3, 4}) {
    const OrderTransform alg = stacked(depth);
    const Value origin = stacked_origin(depth);
    const WeightEngine eng(alg);
    ASSERT_TRUE(eng.compiled()) << "depth " << depth;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      Rng rng(seed);
      LabeledGraph net =
          label_randomly(alg, random_connected(rng, 48, 96), rng);
      const CompiledNet cn = CompiledNet::make(eng, net);
      ASSERT_TRUE(cn.ok());
      expect_same_routing(dijkstra(alg, net, 0, origin),
                          dijkstra(alg, net, 0, origin, &cn));
    }
  }
}

TEST(CompileSim, CompiledRunIsIdenticalToBoxed) {
  const OrderTransform alg = stacked(2);
  const Value origin = stacked_origin(2);
  const WeightEngine eng(alg);
  ASSERT_TRUE(eng.compiled());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    LabeledGraph net = label_randomly(alg, random_connected(rng, 24, 48), rng);
    SimOptions opts;
    opts.seed = seed;
    PathVectorSim boxed(alg, net, 0, origin, opts);
    PathVectorSim flat(alg, net, 0, origin, opts, &eng);
    // Exercise the withdrawal/recovery machinery too.
    for (PathVectorSim* sim : {&boxed, &flat}) {
      sim->schedule_link_down(2.0, 0);
      sim->schedule_link_up(9.0, 0);
      sim->schedule_node_down(4.0, 3);
      sim->schedule_node_up(12.0, 3);
    }
    EXPECT_FALSE(boxed.compiled());
    EXPECT_TRUE(flat.compiled());
    const SimResult rb = boxed.run();
    const SimResult rf = flat.run();
    EXPECT_EQ(rb.converged, rf.converged);
    EXPECT_EQ(rb.events, rf.events);
    EXPECT_EQ(rb.finish_time, rf.finish_time);
    EXPECT_EQ(rb.flaps, rf.flaps);
    EXPECT_EQ(rb.stats.messages_sent, rf.stats.messages_sent);
    EXPECT_EQ(rb.stats.withdrawals_sent, rf.stats.withdrawals_sent);
    EXPECT_EQ(rb.stats.selection_changes, rf.stats.selection_changes);
    expect_same_routing(rb.routing, rf.routing);
  }
}

TEST(CompileSim, CampaignVerdictIdenticalBoxedVsCompiledAndAcrossThreads) {
  chaos::CampaignScenario sc;
  sc.name = "compile-diff";
  sc.alg = stacked(2);
  sc.origin = stacked_origin(2);
  Rng rng(5);
  sc.net = label_randomly(sc.alg, random_connected(rng, 16, 32), rng);
  sc.sim.drop_top_routes = true;
  sc.faults.max_faults = 3;
  chaos::CampaignConfig cfg;
  cfg.seed = 21;
  cfg.runs_per_scenario = 40;

  // Compiled (default) at 1 thread and at the hardware limit, plus boxed
  // (MRT_COMPILE=0): all three verdict tables must be byte-identical.
  const int hw = par::hardware_threads();
  par::set_thread_limit(1);
  const std::string compiled_1 = run_campaign({sc}, cfg).verdict_table();
  par::set_thread_limit(hw);
  const std::string compiled_n = run_campaign({sc}, cfg).verdict_table();
  ::setenv("MRT_COMPILE", "0", 1);
  const std::string boxed = run_campaign({sc}, cfg).verdict_table();
  ::unsetenv("MRT_COMPILE");
  EXPECT_EQ(compiled_1, compiled_n);
  EXPECT_EQ(compiled_1, boxed);
}

TEST(CompileEngine, MrtCompileZeroForcesBoxed) {
  const OrderTransform alg = stacked(2);
  ::setenv("MRT_COMPILE", "0", 1);
  const WeightEngine off(alg);
  ::unsetenv("MRT_COMPILE");
  EXPECT_FALSE(off.compiled());
  const WeightEngine on(alg);
  EXPECT_TRUE(on.compiled());
}

TEST(CompileEngine, OpaqueAlgebraReportsFallbackReason) {
  // scoped() has no describe() support: the compiler must refuse cleanly.
  const OrderTransform alg = stacked(1);
  CompiledAlgebra ca = CompiledAlgebra::compile(alg);
  EXPECT_TRUE(ca.ok());
  EXPECT_STREQ(compile::fallback_name(Fallback::OpaqueOrder), "opaque_order");
  EXPECT_STREQ(compile::fallback_name(Fallback::None), "none");
}

}  // namespace
}  // namespace mrt
