// Differential property suite for the dynamic layer: warm incremental
// update() must be byte-identical (weights AND witness arcs) to a cold
// re-solve of the same post-delta topology, across random chain algebras ×
// random connected graphs × random single/multi-op delta batches — over a
// thousand batches per run. The license: both engines canonicalize their
// routings, and the chain carriers are antisymmetric total orders, so the
// unique fixed point has a unique normal form (docs/DYN.md).
//
// The suite also pins the seam against the *pre-dyn* ground truth: weights
// must match a from-scratch generalized Dijkstra on the renumbered alive
// subgraph (exactly what the chaos oracles ran before this layer existed),
// and the Bellman and Dijkstra engines must agree with each other on these
// distributive instances.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "mrt/dyn/solver.hpp"
#include "mrt/graph/generators.hpp"
#include "mrt/par/par.hpp"
#include "mrt/routing/dijkstra.hpp"

namespace mrt {
namespace {

using mrt::testing::I;
using dyn::TopologyDelta;

struct DynInstance {
  OrderTransform ot;
  LabeledGraph net;
  int n = 0;        ///< carrier top
  int label_lo = 0;  ///< valid relabel range
  int label_hi = 0;
  std::string desc;
};

/// ⊗ = saturating +c, c ∈ [1, hi]: the increasing shortest-path chain.
DynInstance sat_plus_instance(Rng& rng) {
  const int n = 4 + static_cast<int>(rng.below(6));
  const int hi =
      1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n - 1)));
  Digraph g = random_connected(rng, 5 + static_cast<int>(rng.below(6)),
                               3 + static_cast<int>(rng.below(6)));
  ValueVec labels;
  for (int id = 0; id < g.num_arcs(); ++id) {
    labels.push_back(I(rng.range(1, hi)));
  }
  return DynInstance{OrderTransform{"chain(<=,sat+)", ord_chain(n),
                                    fam_chain_add(n, 1, hi), {}},
                     LabeledGraph(std::move(g), std::move(labels)),
                     n,
                     1,
                     hi,
                     "sat_plus n=" + std::to_string(n)};
}

/// ⊗ = max(·, c), c ∈ [0, n]: ND but not increasing (widest-path-like).
DynInstance chain_max_instance(Rng& rng) {
  const int n = 4 + static_cast<int>(rng.below(6));
  Digraph g = random_connected(rng, 5 + static_cast<int>(rng.below(6)),
                               3 + static_cast<int>(rng.below(6)));
  ValueVec labels;
  for (int id = 0; id < g.num_arcs(); ++id) {
    labels.push_back(I(rng.range(0, n)));
  }
  std::vector<std::vector<int>> fns;
  for (int c = 0; c <= n; ++c) {
    std::vector<int> f;
    for (int x = 0; x <= n; ++x) f.push_back(std::max(x, c));
    fns.push_back(std::move(f));
  }
  return DynInstance{OrderTransform{"chain(<=,max)", ord_chain(n),
                                    fam_table("{max(.,c)}", n + 1,
                                              std::move(fns)),
                                    {}},
                     LabeledGraph(std::move(g), std::move(labels)),
                     n,
                     0,
                     n,
                     "chain_max n=" + std::to_string(n)};
}

/// A random batch of 1–4 edits over the instance's arcs/nodes, biased
/// toward arc flaps (the common case) with relabels and crashes mixed in.
TopologyDelta random_delta(Rng& rng, const DynInstance& inst, int dest) {
  TopologyDelta d;
  const int m = inst.net.graph().num_arcs();
  const int n = inst.net.num_nodes();
  const int ops = 1 + static_cast<int>(rng.below(4));
  for (int i = 0; i < ops; ++i) {
    const int arc = static_cast<int>(rng.below(static_cast<std::uint64_t>(m)));
    const int node =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    switch (rng.below(8)) {
      case 0:
      case 1:
      case 2:
        d.arc_down(arc);
        break;
      case 3:
      case 4:
        d.arc_up(arc);
        break;
      case 5:
        d.relabel(arc, I(rng.range(inst.label_lo, inst.label_hi)));
        break;
      case 6:
        d.node_down(node);
        break;
      default:
        d.node_up(node);
        break;
    }
  }
  (void)dest;
  return d;
}

void expect_identical(const Routing& a, const Routing& b,
                      const std::string& what) {
  ASSERT_EQ(a.weight.size(), b.weight.size()) << what;
  for (std::size_t v = 0; v < a.weight.size(); ++v) {
    ASSERT_EQ(a.weight[v].has_value(), b.weight[v].has_value())
        << what << " node " << v;
    if (a.weight[v]) {
      ASSERT_EQ(*a.weight[v], *b.weight[v]) << what << " node " << v;
    }
    ASSERT_EQ(a.next_arc[v], b.next_arc[v]) << what << " node " << v;
  }
}

/// The pre-dyn oracle path: from-scratch dijkstra on the renumbered alive
/// subgraph (dead arcs dropped, node set preserved).
Routing legacy_subgraph_dijkstra(const OrderTransform& alg,
                                 const dyn::DynNet& dnet, int dest,
                                 const Value& origin) {
  return dijkstra(alg, mrt::testing::alive_subgraph(dnet.net(), dnet.masks()),
                  dest, origin);
}

TEST(DynDifferential, WarmUpdateByteIdenticalToColdAcrossThousandDeltas) {
  constexpr int kTrials = 72;
  constexpr int kBatches = 16;  // 72 × 16 = 1152 delta batches
  long warm_batches = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(par::mix_seed(0xD1DE, static_cast<std::uint64_t>(trial)));
    DynInstance inst =
        (trial % 2 == 0) ? sat_plus_instance(rng) : chain_max_instance(rng);
    inst.desc += " trial " + std::to_string(trial);
    const int dest =
        static_cast<int>(rng.below(
            static_cast<std::uint64_t>(inst.net.num_nodes())));
    const dyn::EngineKind kind = (trial % 4 < 2) ? dyn::EngineKind::Dijkstra
                                                 : dyn::EngineKind::Bellman;
    // Every fourth trial routes the warm solver through compiled kernels.
    const compile::WeightEngine eng(inst.ot);
    const compile::WeightEngine* weng = (trial % 4 == 0) ? &eng : nullptr;

    auto warm = dyn::make_solver(kind, inst.ot, weng);
    auto cold = dyn::make_solver(kind, inst.ot);
    warm->solve(inst.net, dest, I(0));
    cold->solve(inst.net, dest, I(0));
    expect_identical(warm->routing(), cold->routing(),
                     inst.desc + " initial solve");

    for (int b = 0; b < kBatches; ++b) {
      const TopologyDelta d = random_delta(rng, inst, dest);
      warm->update(d);
      {
        // MRT_DYN off: the cold twin applies the same delta with the
        // pre-dyn work profile (full masked re-solve).
        const bool before = dyn::enabled();
        dyn::set_enabled(false);
        cold->update(d);
        dyn::set_enabled(before);
      }
      // A batch with no net effect short-circuits before the solve; any
      // batch that changed arcs must have gone through the cold path.
      if (cold->last_update().changed_arcs > 0) {
        ASSERT_TRUE(cold->last_update().cold) << inst.desc;
      }
      ASSERT_EQ(warm->converged(), cold->converged()) << inst.desc;
      if (!warm->converged()) continue;
      if (!warm->last_update().cold) ++warm_batches;
      expect_identical(warm->routing(), cold->routing(),
                       inst.desc + " batch " + std::to_string(b) + " " +
                           d.describe());
      // Pre-dyn ground truth: weights of a fresh solve on the renumbered
      // alive subgraph (what the chaos oracles used to run).
      if (warm->net().node_up(dest)) {
        const Routing legacy =
            legacy_subgraph_dijkstra(inst.ot, warm->net(), dest, I(0));
        for (int v = 0; v < inst.net.num_nodes(); ++v) {
          const std::size_t vi = static_cast<std::size_t>(v);
          const bool legacy_has =
              legacy.weight[vi].has_value() && warm->net().node_up(v);
          ASSERT_EQ(warm->routing().weight[vi].has_value(), legacy_has)
              << inst.desc << " node " << v;
          if (legacy_has) {
            ASSERT_EQ(*warm->routing().weight[vi], *legacy.weight[vi])
                << inst.desc << " node " << v;
          }
        }
      } else {
        for (std::size_t vi = 0; vi < warm->routing().weight.size(); ++vi) {
          ASSERT_FALSE(warm->routing().weight[vi].has_value())
              << inst.desc << " node " << vi;
        }
      }
    }
  }
  // The suite must actually exercise the incremental path, not fall back
  // cold everywhere.
  EXPECT_GT(warm_batches, 500) << "incremental path barely exercised";
}

TEST(DynDifferential, EnginesAgreeByteForByteUnderDeltas) {
  // Distributive chains: local optima are global, and canonicalization
  // gives both engines the same normal form — so Dijkstra and Bellman
  // must produce identical bytes after every batch.
  constexpr int kTrials = 24;
  constexpr int kBatches = 10;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(par::mix_seed(0xD1DF, static_cast<std::uint64_t>(trial)));
    DynInstance inst =
        (trial % 2 == 0) ? sat_plus_instance(rng) : chain_max_instance(rng);
    const int dest =
        static_cast<int>(rng.below(
            static_cast<std::uint64_t>(inst.net.num_nodes())));
    auto dj = dyn::make_solver(dyn::EngineKind::Dijkstra, inst.ot);
    auto bf = dyn::make_solver(dyn::EngineKind::Bellman, inst.ot);
    dj->solve(inst.net, dest, I(0));
    bf->solve(inst.net, dest, I(0));
    expect_identical(dj->routing(), bf->routing(), inst.desc + " cold");
    for (int b = 0; b < kBatches; ++b) {
      const TopologyDelta d = random_delta(rng, inst, dest);
      dj->update(d);
      bf->update(d);
      ASSERT_TRUE(dj->converged() && bf->converged()) << inst.desc;
      expect_identical(dj->routing(), bf->routing(),
                       inst.desc + " batch " + std::to_string(b));
    }
  }
}

TEST(DynDifferential, AffectedSetStaysLocalForSingleArcFlaps) {
  // On a ring, a single arc flap's blast radius must not engulf the whole
  // network on average — the point of incremental recomputation.
  Rng rng(0xAFFEC7);
  const int n = 32;
  Digraph g = ring(n);
  ValueVec labels;
  for (int id = 0; id < g.num_arcs(); ++id) labels.push_back(I(1));
  DynInstance inst{OrderTransform{"chain(<=,sat+)", ord_chain(64),
                                  fam_chain_add(64, 1, 1), {}},
                   LabeledGraph(std::move(g), std::move(labels)),
                   64,
                   1,
                   1,
                   "ring"};
  auto s = dyn::make_solver(dyn::EngineKind::Dijkstra, inst.ot);
  s->solve(inst.net, 0, I(0));
  long total_affected = 0;
  long updates = 0;
  const int m = inst.net.graph().num_arcs();
  for (int b = 0; b < 200; ++b) {
    const int arc = static_cast<int>(rng.below(static_cast<std::uint64_t>(m)));
    s->update(TopologyDelta{}.arc_down(arc));
    ASSERT_FALSE(s->last_update().cold);
    total_affected += s->last_update().affected;
    ++updates;
    s->update(TopologyDelta{}.arc_up(arc));
    total_affected += s->last_update().affected;
    ++updates;
  }
  const double mean_fraction =
      static_cast<double>(total_affected) / (static_cast<double>(updates) * n);
  EXPECT_LT(mean_fraction, 0.75) << "incremental updates touched almost "
                                    "everything on average";
}

}  // namespace
}  // namespace mrt
