// The algebraic-quadrant solver (Kleene/Carré closure over bisemigroups):
// all-pairs shortest/widest paths, path counting on DAGs, agreement between
// the elimination and iteration schemes, and honest divergence reporting.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "mrt/core/bases.hpp"
#include "mrt/core/combinators.hpp"
#include "mrt/graph/generators.hpp"
#include "mrt/routing/closure.hpp"
#include "mrt/routing/dijkstra.hpp"

namespace mrt {
namespace {

using mrt::testing::I;

// 0 → 1 (3), 1 → 2 (4), 0 → 2 (9), 2 → 0 (1).
std::pair<Digraph, ValueVec> diamond() {
  Digraph g(3);
  ValueVec w;
  g.add_arc(0, 1);
  w.push_back(I(3));
  g.add_arc(1, 2);
  w.push_back(I(4));
  g.add_arc(0, 2);
  w.push_back(I(9));
  g.add_arc(2, 0);
  w.push_back(I(1));
  return {std::move(g), std::move(w)};
}

TEST(ArcMatrix, SummarizesParallelArcs) {
  const Bisemigroup sp = bs_shortest_path();
  Digraph g(2);
  g.add_arc(0, 1);
  g.add_arc(0, 1);
  const WeightMatrix a = arc_matrix(sp, g, {I(5), I(3)});
  EXPECT_EQ(*a[0][1], I(3));  // min of the parallel arcs
  EXPECT_FALSE(a[1][0].has_value());
}

TEST(KleeneClosure, AllPairsShortestPaths) {
  const Bisemigroup sp = bs_shortest_path();
  auto [g, w] = diamond();
  const ClosureResult r = kleene_closure(sp, arc_matrix(sp, g, w));
  EXPECT_EQ(*r.star[0][0], I(0));  // empty walk
  EXPECT_EQ(*r.star[0][1], I(3));
  EXPECT_EQ(*r.star[0][2], I(7));  // via 1 beats the direct 9
  EXPECT_EQ(*r.star[2][1], I(4));  // 2 → 0 → 1
  EXPECT_EQ(*r.star[1][0], I(5));  // 1 → 2 → 0
}

TEST(KleeneClosure, AllPairsWidestPaths) {
  // (ℕ∪∞, max, min): ⊗-identity is the infinite-capacity empty walk.
  const Bisemigroup bw{"widest", sg_max(), sg_min(), {}};
  Digraph g(3);
  ValueVec w;
  g.add_arc(0, 1);
  w.push_back(I(2));
  g.add_arc(1, 2);
  w.push_back(I(8));
  g.add_arc(0, 2);
  w.push_back(I(1));
  const ClosureResult r = kleene_closure(bw, arc_matrix(bw, g, w));
  EXPECT_EQ(*r.star[0][2], I(2));  // max(min(2,8), 1)
  EXPECT_EQ(*r.star[0][0], Value::inf());
  EXPECT_FALSE(r.star[2][0].has_value());  // unreachable
}

TEST(KleeneClosure, MatchesDijkstraOnRandomNetworks) {
  const Bisemigroup sp = bs_shortest_path();
  const OrderTransform ot = ot_shortest_path(6);
  Rng rng(0xC105);
  for (int trial = 0; trial < 10; ++trial) {
    Digraph g = random_connected(rng, 8, 5);
    ValueVec w;
    for (int id = 0; id < g.num_arcs(); ++id) {
      w.push_back(I(rng.range(1, 6)));
    }
    const ClosureResult r = kleene_closure(sp, arc_matrix(sp, g, w));
    // Column `dest` of A* equals the per-destination Dijkstra solution.
    for (int dest = 0; dest < g.num_nodes(); ++dest) {
      LabeledGraph net(g, w);
      const Routing d = dijkstra(ot, net, dest, I(0));
      for (int v = 0; v < g.num_nodes(); ++v) {
        ASSERT_TRUE(r.star[(std::size_t)v][(std::size_t)dest].has_value());
        EXPECT_EQ(*r.star[(std::size_t)v][(std::size_t)dest],
                  *d.weight[(std::size_t)v])
            << v << "->" << dest;
      }
    }
  }
}

TEST(IterativeClosure, AgreesWithKleeneOnIdempotentAlgebras) {
  // min over ℕ has no identity, so the widest-path and lex closures carry
  // no empty walk: both schemes must then agree on A⁺.
  struct Case {
    Bisemigroup alg;
    bool lex_weights;  // arc weights are (distance, width) pairs
  };
  const Bisemigroup sp_bw = lex(bs_shortest_path(), bs_widest_path());
  for (const Case& c : {Case{bs_shortest_path(), false},
                        Case{bs_widest_path(), false}, Case{sp_bw, true}}) {
    Rng rng(0xC106);
    for (int trial = 0; trial < 8; ++trial) {
      Digraph g = random_connected(rng, 6, 4);
      ValueVec w;
      for (int id = 0; id < g.num_arcs(); ++id) {
        Value x = I(rng.range(1, 5));
        if (c.lex_weights) x = Value::pair(std::move(x), I(rng.range(0, 9)));
        w.push_back(std::move(x));
      }
      const WeightMatrix a = arc_matrix(c.alg, g, w);
      const ClosureResult kc = kleene_closure(c.alg, a);
      const ClosureResult it = iterative_closure(c.alg, a);
      ASSERT_TRUE(it.converged) << c.alg.name << " trial " << trial;
      EXPECT_EQ(kc.star, it.star) << c.alg.name << " trial " << trial;
    }
  }
}

TEST(IterativeClosure, CountsPathsOnADag) {
  // The classic (ℕ, +, ×) path-counting semiring on a 2×2 grid DAG:
  // 0→1→3, 0→2→3: two paths 0 → 3.
  const Bisemigroup cnt = bs_path_count();
  Digraph g(4);
  ValueVec w;
  for (auto [u, v] : {std::pair{0, 1}, {0, 2}, {1, 3}, {2, 3}}) {
    g.add_arc(u, v);
    w.push_back(I(1));
  }
  const ClosureResult r = iterative_closure(cnt, arc_matrix(cnt, g, w));
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(*r.star[0][3], I(2));
  EXPECT_EQ(*r.star[0][1], I(1));
  EXPECT_EQ(*r.star[0][0], I(1));  // the empty walk
  EXPECT_FALSE(r.star[3][0].has_value());
}

TEST(IterativeClosure, ReportsDivergenceOnCountingCycles) {
  // With a cycle there are infinitely many walks: the + summary never
  // stabilizes, and the solver must say so instead of looping.
  const Bisemigroup cnt = bs_path_count();
  Digraph g(2);
  ValueVec w;
  g.add_arc(0, 1);
  w.push_back(I(1));
  g.add_arc(1, 0);
  w.push_back(I(1));
  ClosureOptions opts;
  opts.max_power = 20;
  const ClosureResult r = iterative_closure(cnt, arc_matrix(cnt, g, w), opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 20);
}

TEST(Closure, ValidatesMatrixShape) {
  const Bisemigroup sp = bs_shortest_path();
  WeightMatrix ragged(2);
  ragged[0].resize(2);
  ragged[1].resize(1);
  EXPECT_THROW(kleene_closure(sp, ragged), std::logic_error);
  Digraph g(2);
  g.add_arc(0, 1);
  EXPECT_THROW(arc_matrix(sp, g, {}), std::logic_error);
}

}  // namespace
}  // namespace mrt
