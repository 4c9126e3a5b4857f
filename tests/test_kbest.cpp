// k-best routing (the section VI "reduction idea" implemented): reduction
// axioms, fixed-point correctness, agreement with Dijkstra on the best
// weight, and completeness against bounded walk enumeration.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "mrt/graph/generators.hpp"
#include "mrt/routing/dijkstra.hpp"
#include "mrt/routing/kbest.hpp"

namespace mrt {
namespace {

using mrt::testing::I;

TEST(KBestReduce, SortsDedupesAndTruncates) {
  auto ord = ord_nat_leq();
  EXPECT_EQ(k_best(*ord, {I(5), I(2), I(5), I(9), I(1)}, 3),
            (ValueVec{I(1), I(2), I(5)}));
  EXPECT_EQ(k_best(*ord, {I(5)}, 3), ValueVec{I(5)});
  EXPECT_TRUE(k_best(*ord, {}, 3).empty());
  // Bandwidth order: best = widest first.
  auto bw = ord_nat_geq();
  EXPECT_EQ(k_best(*bw, {I(5), I(9), I(2)}, 2), (ValueVec{I(9), I(5)}));
}

TEST(KBestReduce, RequiresTotalOrder) {
  auto ord = ord_subset_bits(2);
  EXPECT_THROW(k_best(*ord, {I(0b01), I(0b10)}, 2), std::logic_error);
}

TEST(KBestReduce, ReductionAxiomsOneAndTwo) {
  auto ord = ord_chain(9);
  Rng rng(5);
  // (1) r(∅) = ∅ — covered above. (2) r_k(A ∪ B) = r_k(r_k(A) ∪ B).
  for (int trial = 0; trial < 50; ++trial) {
    const int k = 1 + static_cast<int>(rng.range(0, 3));
    ValueVec a, b;
    for (int i = 0; i < 6; ++i) {
      if (rng.chance(0.6)) a.push_back(I(rng.range(0, 9)));
      if (rng.chance(0.6)) b.push_back(I(rng.range(0, 9)));
    }
    ValueVec ab = a;
    ab.insert(ab.end(), b.begin(), b.end());
    ValueVec ra = k_best(*ord, a, k);
    ra.insert(ra.end(), b.begin(), b.end());
    EXPECT_EQ(k_best(*ord, ab, k), k_best(*ord, ra, k));
  }
}

TEST(KBestReduce, AxiomThreeNeedsInjectivity) {
  // Monotone + injective (the N property): axiom 3 holds.
  auto ord = ord_chain(9);
  auto plus1 = [](const Value& v) {
    return I(std::min<std::int64_t>(9, v.as_int() + 1));
  };
  ValueVec a{I(1), I(2), I(3)};
  auto image = [&](const ValueVec& xs, auto f) {
    ValueVec out;
    for (const Value& x : xs) out.push_back(f(x));
    return out;
  };
  EXPECT_EQ(k_best(*ord, image(a, plus1), 2),
            k_best(*ord, image(k_best(*ord, a, 2), plus1), 2));

  // Monotone but NOT injective (N fails): axiom 3 breaks — the measured
  // reason k-best needs the same N property as monotone lex products.
  auto collapse = [](const Value& v) {  // 1,2 ↦ 1; 3 ↦ 2 (monotone)
    return I(v.as_int() <= 2 ? 1 : 2);
  };
  EXPECT_NE(k_best(*ord, image(a, collapse), 2),
            k_best(*ord, image(k_best(*ord, a, 2), collapse), 2));
}

TEST(KBestBellman, LineGraphEnumeratesDetours) {
  // 1 ↔ 2 ↔ 0 with unit costs and a direct 1 → 0 arc of cost 5:
  // walks from 1: 2 (via 2), 4 (1-2-1-2-0), 5 (direct), 6, ...
  const OrderTransform sp = ot_shortest_path(9);
  Digraph g(3);
  ValueVec labels;
  auto arc = [&](int u, int v, std::int64_t c) {
    g.add_arc(u, v);
    labels.push_back(I(c));
  };
  arc(1, 0, 5);
  arc(1, 2, 1);
  arc(2, 0, 1);
  arc(2, 1, 1);
  LabeledGraph net(std::move(g), std::move(labels));

  const KBestResult r = kbest_bellman(sp, net, 0, I(0), 3);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.weights[1], (ValueVec{I(2), I(4), I(5)}));
  EXPECT_EQ(r.weights[2], (ValueVec{I(1), I(3), I(5)}));
  EXPECT_TRUE(kbest_certified(sp, net, 0, I(0), r));

  // Witness arcs (arc ids in insertion order: 0 = 1→0 cost 5, 1 = 1→2,
  // 2 = 2→0, 3 = 2→1): the origin entry at dest needs no arc; 2 and 4 at
  // node 1 ride the 1→2 arc, 5 the direct arc; at node 2, only the best
  // entry exits via 2→0, the detours bounce through 2→1.
  EXPECT_EQ(r.witness_arcs[0], (std::vector<int>{-1}));
  EXPECT_EQ(r.witness_arcs[1], (std::vector<int>{1, 1, 0}));
  EXPECT_EQ(r.witness_arcs[2], (std::vector<int>{2, 3, 3}));
}

// Every witness arc must actually achieve its entry via some successor
// entry, be the smallest such arc, and be -1 exactly for the origin entry
// at the destination — the per-entry refinement of kbest_certified.
TEST(KBestBellman, WitnessArcsAchieveTheirEntries) {
  Rng rng(0x6BE61);
  const OrderTransform sp = ot_shortest_path(5);
  for (int trial = 0; trial < 10; ++trial) {
    Digraph g = random_connected(rng, 8, 5);
    LabeledGraph net = label_randomly(sp, std::move(g), rng);
    const KBestResult kb = kbest_bellman(sp, net, 0, I(0), 3);
    ASSERT_TRUE(kb.converged);
    ASSERT_EQ(kb.witness_arcs.size(), kb.weights.size());
    for (int u = 0; u < net.num_nodes(); ++u) {
      const auto& wu = kb.weights[(std::size_t)u];
      const auto& au = kb.witness_arcs[(std::size_t)u];
      ASSERT_EQ(au.size(), wu.size()) << "trial " << trial << " node " << u;
      for (std::size_t i = 0; i < wu.size(); ++i) {
        auto achieves = [&](int id) {
          const int v = net.graph().arc(id).dst;
          for (const Value& wv : kb.weights[(std::size_t)v]) {
            if (sp.fns->apply(net.label(id), wv) == wu[i]) return true;
          }
          return false;
        };
        if (u == 0 && wu[i] == I(0)) {
          EXPECT_EQ(au[i], -1) << "trial " << trial;
          continue;
        }
        ASSERT_GE(au[i], 0) << "trial " << trial << " node " << u;
        EXPECT_EQ(net.graph().arc(au[i]).src, u);
        EXPECT_TRUE(achieves(au[i])) << "trial " << trial << " node " << u;
        for (int id : net.graph().out_arcs(u)) {
          if (id >= au[i]) break;
          EXPECT_FALSE(achieves(id))
              << "trial " << trial << " node " << u << ": arc " << id
              << " beats recorded witness " << au[i];
        }
      }
    }
  }
}

TEST(KBestBellman, BestWeightMatchesDijkstra) {
  Rng rng(0x6BE57);
  const OrderTransform sp = ot_shortest_path(5);
  for (int trial = 0; trial < 15; ++trial) {
    Digraph g = random_connected(rng, 8, 5);
    LabeledGraph net = label_randomly(sp, std::move(g), rng);
    const KBestResult kb = kbest_bellman(sp, net, 0, I(0), 4);
    ASSERT_TRUE(kb.converged);
    EXPECT_TRUE(kbest_certified(sp, net, 0, I(0), kb));
    const Routing d = dijkstra(sp, net, 0, I(0));
    for (int v = 0; v < net.num_nodes(); ++v) {
      ASSERT_FALSE(kb.weights[(std::size_t)v].empty());
      EXPECT_EQ(kb.weights[(std::size_t)v].front(), *d.weight[(std::size_t)v]);
      // Sorted strictly ascending, ≤ k entries.
      for (std::size_t i = 1; i < kb.weights[(std::size_t)v].size(); ++i) {
        EXPECT_TRUE(lt_of(sp.ord->cmp(kb.weights[(std::size_t)v][i - 1],
                                      kb.weights[(std::size_t)v][i])));
      }
      EXPECT_LE(kb.weights[(std::size_t)v].size(), 4u);
    }
  }
}

// Completeness against brute force: the k best distinct walk weights, with
// walks enumerated up to a length bound that provably covers the top k
// (every arc adds at least 1 under the increasing family used here).
TEST(KBestBellman, MatchesBoundedWalkEnumeration) {
  Rng rng(0x6BE58);
  const OrderTransform sp = ot_shortest_path(3);
  for (int trial = 0; trial < 8; ++trial) {
    Digraph g = random_connected(rng, 5, 3);
    LabeledGraph net = label_randomly(sp, std::move(g), rng);
    const int k = 3;
    const KBestResult kb = kbest_bellman(sp, net, 0, I(0), k);
    ASSERT_TRUE(kb.converged);

    // Enumerate all walk weights up to length bound L by dynamic programming
    // over (length, node): W[l][u] = set of weights of length-l walks u → 0.
    const int kMaxLen = 14;  // top-3 distinct weights are ≤ 3·maxc + slack
    const int n = net.num_nodes();
    std::vector<std::vector<ValueVec>> W(
        static_cast<std::size_t>(kMaxLen + 1),
        std::vector<ValueVec>(static_cast<std::size_t>(n)));
    W[0][0] = {I(0)};
    for (int l = 1; l <= kMaxLen; ++l) {
      for (int u = 0; u < n; ++u) {
        ValueVec pool;
        for (int id : net.graph().out_arcs(u)) {
          const int v = net.graph().arc(id).dst;
          for (const Value& w : W[(std::size_t)l - 1][(std::size_t)v]) {
            pool.push_back(sp.fns->apply(net.label(id), w));
          }
        }
        W[(std::size_t)l][(std::size_t)u] = normalize_set(pool);
      }
    }
    for (int u = 0; u < n; ++u) {
      ValueVec all;
      if (u == 0) all.push_back(I(0));
      for (int l = 1; l <= kMaxLen; ++l) {
        const auto& wl = W[(std::size_t)l][(std::size_t)u];
        all.insert(all.end(), wl.begin(), wl.end());
      }
      EXPECT_EQ(kb.weights[(std::size_t)u], k_best(*sp.ord, all, k))
          << "trial " << trial << " node " << u;
    }
  }
}

TEST(KBestBellman, KEqualsOneIsPlainBellman) {
  Rng rng(0x6BE59);
  const OrderTransform bw = ot_widest_path(5);
  Digraph g = random_connected(rng, 6, 4);
  LabeledGraph net = label_randomly(bw, std::move(g), rng);
  const KBestResult kb = kbest_bellman(bw, net, 0, Value::inf(), 1);
  ASSERT_TRUE(kb.converged);
  const Routing d = dijkstra(bw, net, 0, Value::inf());
  for (int v = 0; v < net.num_nodes(); ++v) {
    ASSERT_EQ(kb.weights[(std::size_t)v].size(), 1u);
    EXPECT_EQ(kb.weights[(std::size_t)v].front(), *d.weight[(std::size_t)v]);
  }
}

}  // namespace
}  // namespace mrt
