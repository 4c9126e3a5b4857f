// Unit tests for the dynamic layer: TopologyDelta / DynNet semantics, the
// Solver seam, incremental engines vs cold solves on hand-built topologies,
// the MRT_DYN toggle, and the simulator → delta bridge.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "mrt/dyn/solver.hpp"
#include "mrt/graph/generators.hpp"
#include "mrt/sim/path_vector.hpp"

namespace mrt {
namespace {

using mrt::testing::I;
using dyn::TopologyDelta;

/// Restores the dyn toggle on scope exit.
struct DynToggle {
  explicit DynToggle(bool on) : before(dyn::enabled()) {
    dyn::set_enabled(on);
  }
  ~DynToggle() { dyn::set_enabled(before); }
  bool before;
};

/// Shortest-path chain: carrier {0..n}, ≤, labels = saturating +c.
OrderTransform chain_alg(int n, int hi) {
  return OrderTransform{"chain(<=,sat+)", ord_chain(n),
                        fam_chain_add(n, 1, hi), {}};
}

/// A 4-node diamond: 0→1→3 (cheap), 0→2→3 (expensive), plus 0→3 direct.
///   arcs: 0: (0,1)+1   1: (1,3)+1   2: (0,2)+2   3: (2,3)+2   4: (0,3)+5
LabeledGraph diamond() {
  Digraph g(4);
  g.add_arc(0, 1);
  g.add_arc(1, 3);
  g.add_arc(0, 2);
  g.add_arc(2, 3);
  g.add_arc(0, 3);
  ValueVec labels = {I(1), I(1), I(2), I(2), I(5)};
  return LabeledGraph(std::move(g), std::move(labels));
}

void expect_same_routing(const Routing& a, const Routing& b,
                         const std::string& what) {
  ASSERT_EQ(a.weight.size(), b.weight.size()) << what;
  for (std::size_t v = 0; v < a.weight.size(); ++v) {
    ASSERT_EQ(a.weight[v].has_value(), b.weight[v].has_value())
        << what << " node " << v;
    if (a.weight[v]) {
      EXPECT_EQ(*a.weight[v], *b.weight[v]) << what << " node " << v;
    }
    EXPECT_EQ(a.next_arc[v], b.next_arc[v]) << what << " node " << v;
  }
}

TEST(TopologyDelta, BuildersAndDescribe) {
  TopologyDelta d;
  EXPECT_TRUE(d.empty());
  d.arc_down(3).arc_up(4).relabel(1, I(7)).node_down(2).node_up(0);
  EXPECT_EQ(d.ops.size(), 5u);
  EXPECT_EQ(d.describe(),
            "[arc_down(3), arc_up(4), relabel(1, 7), node_down(2), "
            "node_up(0)]");
}

TEST(DynNet, ApplyReportsNetEffectOnly) {
  dyn::DynNet net(diamond());
  EXPECT_EQ(net.version(), 0u);

  // Downing a live arc changes it; downing it again does not.
  auto ap = net.apply(TopologyDelta{}.arc_down(0));
  EXPECT_EQ(ap.changed_arcs, (std::vector<int>{0}));
  EXPECT_FALSE(net.arc_alive(0));
  ap = net.apply(TopologyDelta{}.arc_down(0));
  EXPECT_TRUE(ap.changed_arcs.empty());
  EXPECT_FALSE(ap.any());
  EXPECT_EQ(net.version(), 2u);  // version bumps per batch regardless

  // A down-then-up flap inside one batch is a net no-op.
  ap = net.apply(TopologyDelta{}.arc_down(1).arc_up(1));
  EXPECT_FALSE(ap.any());

  // Relabel to the same value is a no-op; to a new value it reports both
  // lists, and A→B→A inside one batch nets out.
  ap = net.apply(TopologyDelta{}.relabel(4, I(5)));
  EXPECT_FALSE(ap.any());
  ap = net.apply(TopologyDelta{}.relabel(4, I(3)));
  EXPECT_EQ(ap.changed_arcs, (std::vector<int>{4}));
  EXPECT_EQ(ap.relabeled_arcs, (std::vector<int>{4}));
  EXPECT_EQ(net.label(4), I(3));
  ap = net.apply(TopologyDelta{}.relabel(4, I(9)).relabel(4, I(3)));
  EXPECT_FALSE(ap.any());
}

TEST(DynNet, NodeCrashKillsIncidentArcs) {
  dyn::DynNet net(diamond());
  auto ap = net.apply(TopologyDelta{}.node_down(1));
  EXPECT_EQ(ap.nodes_down, (std::vector<int>{1}));
  // Node 1 touches arcs 0 (0→1) and 1 (1→3).
  EXPECT_EQ(ap.changed_arcs, (std::vector<int>{0, 1}));
  EXPECT_FALSE(net.arc_alive(0));
  EXPECT_FALSE(net.arc_alive(1));
  EXPECT_TRUE(net.arc_admin_up(0));  // admin state untouched by crashes

  // Restart revives exactly those arcs.
  ap = net.apply(TopologyDelta{}.node_up(1));
  EXPECT_EQ(ap.nodes_up, (std::vector<int>{1}));
  EXPECT_EQ(ap.changed_arcs, (std::vector<int>{0, 1}));
  EXPECT_TRUE(net.arc_alive(0));

  // An admin-downed arc stays down through a crash/restart cycle.
  net.apply(TopologyDelta{}.arc_down(0));
  net.apply(TopologyDelta{}.node_down(1));
  ap = net.apply(TopologyDelta{}.node_up(1));
  EXPECT_EQ(ap.changed_arcs, (std::vector<int>{1}));
  EXPECT_FALSE(net.arc_alive(0));
}

TEST(DynNet, ToStateReproducesMasks) {
  const std::vector<bool> arc_up = {true, false, true, true, false};
  const std::vector<bool> node_up = {true, true, false, true};
  const TopologyDelta d = TopologyDelta::to_state(arc_up, node_up);
  dyn::DynNet net(diamond());
  net.apply(d);
  for (int a = 0; a < 5; ++a) {
    EXPECT_EQ(net.arc_admin_up(a), arc_up[static_cast<std::size_t>(a)]) << a;
  }
  for (int v = 0; v < 4; ++v) {
    EXPECT_EQ(net.node_up(v), node_up[static_cast<std::size_t>(v)]) << v;
  }
}

// A batch is checked whole before any op applies: a bad id anywhere in it —
// after valid ops that would already have mutated the net — throws and
// leaves version, masks and labels exactly as they were.
TEST(DynNet, RejectedBatchMutatesNothing) {
  dyn::DynNet net(diamond());
  net.apply(TopologyDelta{}.arc_down(4));
  const std::uint64_t v0 = net.version();
  const std::vector<TopologyDelta> bad = {
      TopologyDelta{}.arc_down(0).node_down(4 + 7),
      TopologyDelta{}.relabel(1, I(9)).node_up(2).arc_up(5),
      TopologyDelta{}.node_down(1).arc_up(4).relabel(-1, I(2)),
      TopologyDelta{}.arc_up(4).node_up(-3),
  };
  for (const TopologyDelta& d : bad) {
    EXPECT_THROW(net.apply(d), std::logic_error) << d.describe();
    EXPECT_EQ(net.version(), v0) << d.describe();
    for (int a = 0; a < 5; ++a) {
      EXPECT_EQ(net.arc_admin_up(a), a != 4) << d.describe() << " arc " << a;
      EXPECT_EQ(net.label(a), diamond().label(a)) << d.describe() << " arc " << a;
    }
    for (int v = 0; v < 4; ++v) {
      EXPECT_TRUE(net.node_up(v)) << d.describe() << " node " << v;
    }
  }
  // The next good batch sees the untouched state: arc 0 is still up, so
  // downing it is a real change.
  const auto ap = net.apply(TopologyDelta{}.arc_down(0));
  EXPECT_EQ(ap.changed_arcs, (std::vector<int>{0}));
  EXPECT_EQ(net.version(), v0 + 1);

  // Bound to its algebra's family (saturating +c, c in 1..5), the net also
  // refuses a relabel outside it, after ops that would already have applied.
  dyn::DynNet bound(diamond(), fam_chain_add(20, 1, 5));
  const TopologyDelta past = TopologyDelta{}.arc_down(0).relabel(1, I(9));
  EXPECT_THROW(bound.apply(past), std::logic_error);
  EXPECT_EQ(bound.version(), 0u);
  EXPECT_TRUE(bound.arc_admin_up(0));
  EXPECT_EQ(bound.label(1), I(1));
  const auto in = bound.apply(TopologyDelta{}.arc_down(0).relabel(1, I(5)));
  EXPECT_EQ(in.changed_arcs, (std::vector<int>{0, 1}));
  EXPECT_EQ(bound.label(1), I(5));
}

// DynNet::apply diffs only what a batch names: its arcs, its nodes and the
// arcs incident to its nodes. On random batches — in-batch flaps, repeated
// ops, relabels of dead arcs and relabels back to the same label, node
// crashes over admin-down arcs, crash-and-restart in one batch — its lists
// equal a scan of every arc and node before and after the batch.
TEST(DynNet, ApplyMatchesFullScanOnRandomBatches) {
  Rng rng(0xD17A);
  int relabeled = 0;
  int dead_relabels = 0;
  int crashes_over_down_arcs = 0;
  int no_ops = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 6 + static_cast<int>(rng.below(10));
    Digraph g = random_connected(rng, n, 4 + static_cast<int>(rng.below(12)));
    g.add_arc(0, 0);  // a self-loop is both an in- and an out-arc of 0
    g.add_arc(g.arc(0).src, g.arc(0).dst);  // parallel to arc 0
    ValueVec labels;
    for (int id = 0; id < g.num_arcs(); ++id) {
      labels.push_back(I(rng.range(1, 3)));
    }
    const int m = g.num_arcs();
    dyn::DynNet net(LabeledGraph(std::move(g), std::move(labels)));
    for (int b = 0; b < 25; ++b) {
      TopologyDelta d;
      const int ops = 1 + static_cast<int>(rng.below(6));
      for (int i = 0; i < ops; ++i) {
        const int a =
            static_cast<int>(rng.below(static_cast<std::uint64_t>(m)));
        const int v =
            static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
        switch (rng.below(7)) {
          case 0:
            d.arc_down(a);
            break;
          case 1:
            d.arc_up(a);
            break;
          case 2:
            d.arc_down(a).arc_up(a);
            break;
          case 3:
            if (!net.arc_alive(a)) ++dead_relabels;
            d.relabel(a, I(rng.range(1, 3)));
            break;
          case 4:
            for (int id : net.graph().in_arcs(v)) {
              if (!net.arc_admin_up(id) && net.node_up(v)) {
                ++crashes_over_down_arcs;
              }
            }
            d.node_down(v);
            break;
          case 5:
            d.node_up(v);
            break;
          default:
            d.node_down(v).node_up(v);
            break;
        }
      }
      if (rng.below(3) == 0) {
        d.ops.push_back(d.ops[static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(d.ops.size())))]);
      }
      const dyn::DynNet before = net;
      const dyn::DynNet::Applied ap = net.apply(d);
      const dyn::DynNet::Applied ref =
          mrt::testing::full_scan_applied(before, net);
      EXPECT_EQ(ap.changed_arcs, ref.changed_arcs) << d.describe();
      EXPECT_EQ(ap.relabeled_arcs, ref.relabeled_arcs) << d.describe();
      EXPECT_EQ(ap.nodes_down, ref.nodes_down) << d.describe();
      EXPECT_EQ(ap.nodes_up, ref.nodes_up) << d.describe();
      EXPECT_EQ(net.version(), before.version() + 1);
      relabeled += static_cast<int>(ap.relabeled_arcs.size());
      if (!ap.any()) ++no_ops;
    }
  }
  EXPECT_GT(relabeled, 50);
  EXPECT_GT(dead_relabels, 20);
  EXPECT_GT(crashes_over_down_arcs, 20);
  EXPECT_GT(no_ops, 20);
}

class SolverSeam : public ::testing::TestWithParam<dyn::EngineKind> {};

TEST_P(SolverSeam, ColdSolveMatchesExpectedDiamond) {
  auto s = dyn::make_solver(GetParam(), chain_alg(20, 5));
  const Routing& r = s->solve(diamond(), 3, I(0));
  ASSERT_TRUE(s->converged());
  EXPECT_EQ(*r.weight[0], I(2));  // 0→1→3
  EXPECT_EQ(*r.weight[1], I(1));
  EXPECT_EQ(*r.weight[2], I(2));
  EXPECT_EQ(*r.weight[3], I(0));
  EXPECT_EQ(r.next_arc[0], 0);
  EXPECT_EQ(r.next_arc[1], 1);
  EXPECT_EQ(r.next_arc[2], 3);
  EXPECT_EQ(r.next_arc[3], -1);
  EXPECT_TRUE(s->last_update().cold);
}

TEST_P(SolverSeam, ArcDownRelabelAndRecoveryMatchCold) {
  const OrderTransform alg = chain_alg(20, 5);
  auto warm = dyn::make_solver(GetParam(), alg);
  warm->solve(diamond(), 3, I(0));

  // Kill the cheap path's first hop: 0 must reroute via 2 (weight 4).
  warm->update(TopologyDelta{}.arc_down(0));
  ASSERT_TRUE(warm->converged());
  EXPECT_EQ(*warm->routing().weight[0], I(4));
  EXPECT_EQ(warm->routing().next_arc[0], 2);
  EXPECT_FALSE(warm->last_update().cold);

  // A cold solver bound to the same post-delta state must agree exactly.
  auto cold = dyn::make_solver(GetParam(), alg);
  cold->solve(diamond(), 3, I(0));
  {
    DynToggle off(false);
    cold->update(TopologyDelta{}.arc_down(0));
    EXPECT_TRUE(cold->last_update().cold);
  }
  expect_same_routing(warm->routing(), cold->routing(), "arc_down");

  // Relabel the detour (2 + 5) to be worse than the direct arc (5), with
  // the top of the family's 1..5 range.
  warm->update(TopologyDelta{}.relabel(3, I(5)));
  {
    DynToggle off(false);
    cold->update(TopologyDelta{}.relabel(3, I(5)));
  }
  expect_same_routing(warm->routing(), cold->routing(), "relabel");
  EXPECT_EQ(warm->routing().next_arc[0], 4);  // direct 0→3 at weight 5

  // Bring the cheap path back: warm must *improve* frozen nodes.
  warm->update(TopologyDelta{}.arc_up(0));
  {
    DynToggle off(false);
    cold->update(TopologyDelta{}.arc_up(0));
  }
  expect_same_routing(warm->routing(), cold->routing(), "arc_up");
  EXPECT_EQ(*warm->routing().weight[0], I(2));
}

TEST_P(SolverSeam, DestCrashWithdrawsEverywhereAndRestartRecovers) {
  const OrderTransform alg = chain_alg(20, 5);
  auto s = dyn::make_solver(GetParam(), alg);
  const Routing cold_start = s->solve(diamond(), 3, I(0));

  s->update(TopologyDelta{}.node_down(3));
  ASSERT_TRUE(s->converged());
  for (int v = 0; v < 4; ++v) {
    EXPECT_FALSE(s->routing().weight[static_cast<std::size_t>(v)].has_value())
        << v;
    EXPECT_EQ(s->routing().next_arc[static_cast<std::size_t>(v)], -1) << v;
  }

  s->update(TopologyDelta{}.node_up(3));
  ASSERT_TRUE(s->converged());
  expect_same_routing(s->routing(), cold_start, "dest restart");
}

TEST_P(SolverSeam, MidCrashPartitionsAndHeals) {
  // Line 0→1→2→3 (dest 3): crashing 1 strands 0; node 2 keeps its route.
  Digraph g(4);
  g.add_arc(0, 1);
  g.add_arc(1, 2);
  g.add_arc(2, 3);
  LabeledGraph net(std::move(g), {I(1), I(1), I(1)});
  const OrderTransform alg = chain_alg(20, 5);
  auto s = dyn::make_solver(GetParam(), alg);
  const Routing before = s->solve(net, 3, I(0));

  s->update(TopologyDelta{}.node_down(1));
  ASSERT_TRUE(s->converged());
  EXPECT_FALSE(s->routing().weight[0].has_value());
  EXPECT_FALSE(s->routing().weight[1].has_value());
  EXPECT_EQ(*s->routing().weight[2], I(1));
  // The blast radius excludes the surviving side of the partition.
  EXPECT_LE(s->last_update().affected, 2);

  s->update(TopologyDelta{}.node_up(1));
  ASSERT_TRUE(s->converged());
  expect_same_routing(s->routing(), before, "heal");
}

TEST_P(SolverSeam, EmptyDeltaIsFreeAndKeepsRouting) {
  auto s = dyn::make_solver(GetParam(), chain_alg(20, 5));
  const Routing before = s->solve(diamond(), 3, I(0));
  s->update(TopologyDelta{});
  EXPECT_EQ(s->last_update().affected, 0);
  EXPECT_FALSE(s->last_update().cold);
  expect_same_routing(s->routing(), before, "noop");
  // Idempotent ops (downing a down arc) are also free.
  s->update(TopologyDelta{}.arc_down(0));
  s->update(TopologyDelta{}.arc_down(0));
  EXPECT_EQ(s->last_update().affected, 0);
}

TEST_P(SolverSeam, CloneIsIndependent) {
  auto s = dyn::make_solver(GetParam(), chain_alg(20, 5));
  s->solve(diamond(), 3, I(0));
  auto c = s->clone();
  c->update(TopologyDelta{}.arc_down(0));
  // The original is untouched by the clone's delta.
  EXPECT_EQ(*s->routing().weight[0], I(2));
  EXPECT_EQ(*c->routing().weight[0], I(4));
  EXPECT_EQ(s->net().version(), 0u + 0u);
  EXPECT_TRUE(c->net().version() > s->net().version());
}

TEST_P(SolverSeam, DisabledToggleForcesColdWithIdenticalResults) {
  const OrderTransform alg = chain_alg(20, 5);
  auto warm = dyn::make_solver(GetParam(), alg);
  auto cold = dyn::make_solver(GetParam(), alg);
  warm->solve(diamond(), 3, I(0));
  cold->solve(diamond(), 3, I(0));
  const TopologyDelta d = TopologyDelta{}.arc_down(1).relabel(2, I(1));
  warm->update(d);
  {
    DynToggle off(false);
    cold->update(d);
    EXPECT_TRUE(cold->last_update().cold);
  }
  EXPECT_FALSE(warm->last_update().cold);
  expect_same_routing(warm->routing(), cold->routing(), "toggle");
}

TEST_P(SolverSeam, CompiledEngineAgreesWithBoxed) {
  const OrderTransform alg = chain_alg(20, 5);
  const compile::WeightEngine eng(alg);
  auto compiled = dyn::make_solver(GetParam(), alg, &eng);
  auto boxed = dyn::make_solver(GetParam(), alg);
  compiled->solve(diamond(), 3, I(0));
  boxed->solve(diamond(), 3, I(0));
  expect_same_routing(compiled->routing(), boxed->routing(), "cold");
  const TopologyDelta d = TopologyDelta{}.relabel(0, I(4)).arc_down(3);
  compiled->update(d);
  boxed->update(d);
  expect_same_routing(compiled->routing(), boxed->routing(), "update");
}

INSTANTIATE_TEST_SUITE_P(Engines, SolverSeam,
                         ::testing::Values(dyn::EngineKind::Dijkstra,
                                           dyn::EngineKind::Bellman),
                         [](const auto& info) {
                           return info.param == dyn::EngineKind::Dijkstra
                                      ? "Dijkstra"
                                      : "Bellman";
                         });

// The cold Dijkstra engine's relaxation count is part of its observable work
// profile (dyn.relaxations, the BENCH records): pinned on a boxed and a
// compiled instance, after the cold bind and after a cold update.
TEST(DijkstraEngine, ColdRelaxationCountsArePinned) {
  DynToggle off(false);
  const OrderTransform alg = chain_alg(20, 5);
  auto boxed = dyn::make_solver(dyn::EngineKind::Dijkstra, alg);
  boxed->solve(diamond(), 3, I(0));
  EXPECT_EQ(boxed->last_update().relaxations, 8u);
  boxed->update(TopologyDelta{}.arc_down(0));
  ASSERT_TRUE(boxed->last_update().cold);
  EXPECT_EQ(boxed->last_update().relaxations, 8u);

  Rng rng(0xC01D);
  const OrderTransform big = chain_alg(64, 4);
  const LabeledGraph net = label_randomly(big, random_connected(rng, 40, 80),
                                          rng);
  const compile::WeightEngine eng(big);
  ASSERT_TRUE(eng.compiled());
  auto flat = dyn::make_solver(dyn::EngineKind::Dijkstra, big, &eng);
  flat->solve(net, 5, I(0));
  EXPECT_EQ(flat->last_update().relaxations, 196u);
  flat->update(TopologyDelta{}.node_down(11).arc_down(7).arc_down(30));
  ASSERT_TRUE(flat->last_update().cold);
  EXPECT_EQ(flat->last_update().relaxations, 181u);
}

TEST(SimDeltaBridge, SimResultDeltaReproducesSurvivingTopology) {
  // A faulted simulator run's delta, applied to a fresh DynNet, must land on
  // exactly the surviving topology the result reports.
  const OrderTransform alg = chain_alg(20, 5);
  LabeledGraph net = diamond();
  SimOptions opts;
  opts.seed = 42;
  PathVectorSim sim(alg, net, 3, I(0), opts);
  sim.schedule_link_down(0.5, 0);
  sim.schedule_node_down(1.0, 2);
  const SimResult res = sim.run();
  ASSERT_TRUE(res.converged);

  dyn::DynNet dnet(net);
  dnet.apply(res.delta);
  for (int a = 0; a < net.graph().num_arcs(); ++a) {
    EXPECT_EQ(dnet.arc_alive(a), res.arc_alive[static_cast<std::size_t>(a)])
        << "arc " << a;
  }
  for (int v = 0; v < net.num_nodes(); ++v) {
    EXPECT_EQ(dnet.node_up(v), res.node_up[static_cast<std::size_t>(v)])
        << "node " << v;
  }

  // And feeding it through the seam gives the quiesced protocol's weights
  // (increasing chain algebra: unique optimum).
  auto s = dyn::make_solver(dyn::EngineKind::Dijkstra, alg);
  s->solve(net, 3, I(0));
  const Routing& truth = s->update(res.delta);
  for (int v = 0; v < net.num_nodes(); ++v) {
    const std::size_t vi = static_cast<std::size_t>(v);
    ASSERT_EQ(truth.weight[vi].has_value(), res.routing.weight[vi].has_value())
        << v;
    if (truth.weight[vi]) {
      EXPECT_EQ(*truth.weight[vi], *res.routing.weight[vi]) << v;
    }
  }
}

TEST(CompiledNetRelabel, ReencodesSingleArc) {
  const OrderTransform alg = chain_alg(20, 5);
  const compile::WeightEngine eng(alg);
  LabeledGraph net = diamond();
  compile::CompiledNet cn = compile::CompiledNet::make(eng, net);
  ASSERT_TRUE(cn.ok());
  cn.relabel(0, I(3));
  EXPECT_TRUE(cn.ok());
  // The recompiled program must behave like a from-scratch compilation.
  net.relabel(0, I(3));
  const compile::CompiledNet fresh = compile::CompiledNet::make(eng, net);
  std::vector<std::uint64_t> a(static_cast<std::size_t>(cn.words()), 0);
  std::vector<std::uint64_t> b(a);
  ASSERT_TRUE(cn.algebra().encode(I(1), a.data()));
  ASSERT_TRUE(fresh.algebra().encode(I(1), b.data()));
  cn.algebra().apply(cn.label(0), a.data());
  fresh.algebra().apply(fresh.label(0), b.data());
  EXPECT_EQ(cn.algebra().decode(a.data()), fresh.algebra().decode(b.data()));
}

}  // namespace
}  // namespace mrt
