// Differential property suite for mrt::rib: every column of a batched
// RibSolver — cold, and after hundreds of random delta batches — must be
// byte-identical (weights AND witness arcs) to a standalone
// dyn::Solver(Bellman) bound to the same destination, across random chain
// algebras × random connected topologies × random single/multi-op deltas,
// and across every A/B axis the batched solver owns:
//
//   MRT_COMPILE — WeightEngine present (flat blocked kernels) vs absent
//                 (reference dyn::Solver columns), via in-process toggles;
//   MRT_DYN     — dyn::set_enabled(false) forces cold re-solves;
//   MRT_THREADS — par::set_thread_limit, the bit-identical-at-any-
//                 thread-count contract over destination blocks;
//   MRT_SIMD    — compile::simd::set_enabled, the vectorized select/compare
//                 kernels (including the slot-major vertical relax on
//                 multi-word carriers) vs their scalar twins.
//
// The license for exact comparison is the same as test_dyn_differential:
// both sides canonicalize witnesses, and the chain carriers are
// antisymmetric total orders, so the fixed point has a unique normal form.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "mrt/compile/simd.hpp"
#include "mrt/core/bases.hpp"
#include "mrt/core/combinators.hpp"
#include "mrt/dyn/solver.hpp"
#include "mrt/graph/generators.hpp"
#include "mrt/obs/obs.hpp"
#include "mrt/par/par.hpp"
#include "mrt/rib/rib.hpp"
#include "mrt/sim/scenario.hpp"

namespace mrt {
namespace {

using mrt::testing::I;
using dyn::TopologyDelta;

struct RibInstance {
  OrderTransform ot;
  LabeledGraph net;
  int label_lo = 0;
  int label_hi = 0;
  std::string desc;
  bool pair_labels = false;  ///< labels (and relabels) are (cost, cap) pairs
};

/// The origin weight matching an instance's carrier shape.
Value origin_of(const RibInstance& inst) {
  return inst.pair_labels ? Value::pair(I(0), Value::inf()) : I(0);
}

/// ⊗ = saturating +c (increasing shortest-path chain) — compiles flat.
RibInstance sat_plus_instance(Rng& rng) {
  const int n = 4 + static_cast<int>(rng.below(6));
  const int hi =
      1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n - 1)));
  Digraph g = random_connected(rng, 5 + static_cast<int>(rng.below(6)),
                               3 + static_cast<int>(rng.below(6)));
  ValueVec labels;
  for (int id = 0; id < g.num_arcs(); ++id) {
    labels.push_back(I(rng.range(1, hi)));
  }
  return RibInstance{OrderTransform{"chain(<=,sat+)", ord_chain(n),
                                    fam_chain_add(n, 1, hi), {}},
                     LabeledGraph(std::move(g), std::move(labels)),
                     1,
                     hi,
                     "sat_plus n=" + std::to_string(n)};
}

/// ⊗ = max(·, c): ND but not increasing (widest-path-like), table family.
RibInstance chain_max_instance(Rng& rng) {
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
  return RibInstance{OrderTransform{"chain(<=,max)", ord_chain(n),
                                    fam_table("{max(.,c)}", n + 1,
                                              std::move(fns)),
                                    {}},
                     LabeledGraph(std::move(g), std::move(labels)),
                     0,
                     n,
                     "chain_max n=" + std::to_string(n)};
}

/// lex(shortest, widest): a two-word flat carrier whose labels compile to
/// dense AddSat/MinWord programs — the multi-word vec-capable shape the
/// slot-major vertical SIMD kernel targets. Node counts ≥ 9 guarantee at
/// least one full 8-lane block in the all-|V| sweep, so the vertical path
/// genuinely engages.
RibInstance lex_stack_instance(Rng& rng) {
  Digraph g = random_connected(rng, 9 + static_cast<int>(rng.below(8)),
                               5 + static_cast<int>(rng.below(8)));
  ValueVec labels;
  for (int id = 0; id < g.num_arcs(); ++id) {
    labels.push_back(Value::pair(I(rng.range(1, 5)), I(rng.range(1, 5))));
  }
  return RibInstance{lex(ot_shortest_path(6), ot_widest_path(6)),
                     LabeledGraph(std::move(g), std::move(labels)),
                     1,
                     5,
                     "lex_stack",
                     /*pair_labels=*/true};
}

/// 1–4 random edits, biased toward arc flaps, with relabels and node
/// crash/restart mixed in — the same shape as the dyn differential suite.
TopologyDelta random_delta(Rng& rng, const RibInstance& inst) {
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
        d.relabel(arc,
                  inst.pair_labels
                      ? Value::pair(I(rng.range(inst.label_lo, inst.label_hi)),
                                    I(rng.range(inst.label_lo, inst.label_hi)))
                      : I(rng.range(inst.label_lo, inst.label_hi)));
        break;
      case 6:
        d.node_down(node);
        break;
      default:
        d.node_up(node);
        break;
    }
  }
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

/// The RIB's work accounting equals its references', column by column: the
/// per-column affected counts, the summed relaxations, and the number of
/// columns that went cold.
void expect_same_accounting(const rib::RibStats& st,
                            const std::vector<std::unique_ptr<Solver>>& ref,
                            const std::string& what) {
  ASSERT_EQ(st.affected.size(), ref.size()) << what;
  std::uint64_t relaxations = 0;
  int cold = 0;
  for (std::size_t c = 0; c < ref.size(); ++c) {
    const dyn::UpdateStats& rs = ref[c]->last_update();
    EXPECT_EQ(st.affected[c], rs.affected) << what << " col " << c;
    relaxations += rs.relaxations;
    if (rs.cold) ++cold;
  }
  EXPECT_EQ(st.relaxations, relaxations) << what;
  EXPECT_EQ(st.cold_columns, cold) << what;
}

/// Scoped toggles: restores dyn::enabled, the par thread limit, and the
/// SIMD kernel toggle on exit so one trial's A/B setting never leaks into
/// the next.
struct ScopedToggles {
  bool dyn_before = dyn::enabled();
  int threads_before = par::thread_limit();
  bool simd_before = compile::simd::enabled();
  ScopedToggles(bool dyn_on, int threads, bool simd_on) {
    dyn::set_enabled(dyn_on);
    par::set_thread_limit(threads);
    compile::simd::set_enabled(simd_on);
  }
  ~ScopedToggles() {
    dyn::set_enabled(dyn_before);
    par::set_thread_limit(threads_before);
    compile::simd::set_enabled(simd_before);
  }
};

// The headline differential: sweeping the full toggle cube, every RIB
// column must match a standalone Bellman dyn::Solver byte for byte on the
// cold solve and after every one of ≥500 random delta batches — and so
// must the work accounting (affected sets, relaxations, cold columns).
TEST(RibDifferential, ColumnsByteIdenticalToStandaloneAcrossDeltas) {
  constexpr int kTrials = 64;
  constexpr int kBatches = 8;  // 64 × 8 = 512 delta batches
  long warm_batches = 0;
  long flat_trials = 0;
  long vec_trials = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(par::mix_seed(0x51B0, static_cast<std::uint64_t>(trial)));
    RibInstance inst = (trial % 3 == 0)   ? sat_plus_instance(rng)
                       : (trial % 3 == 1) ? chain_max_instance(rng)
                                          : lex_stack_instance(rng);
    inst.desc += " trial " + std::to_string(trial);

    // The toggle cube: MRT_SIMD × MRT_COMPILE × MRT_DYN × MRT_THREADS.
    const bool with_engine = (trial % 2 == 0);
    const bool dyn_on = (trial % 4 < 3);  // every 4th trial forces cold
    const int threads = (trial % 3 == 0) ? 4 : 1;
    const bool simd_on = (trial % 5 != 4);  // every 5th trial scalar kernels
    ScopedToggles toggles(dyn_on, threads, simd_on);

    const compile::WeightEngine eng(inst.ot);
    const compile::WeightEngine* weng = with_engine ? &eng : nullptr;
    if (inst.pair_labels && with_engine && simd_on) ++vec_trials;

    // All |V| destinations — the full routing table.
    const int n = inst.net.num_nodes();
    rib::RibSolver rib(inst.ot, weng);
    rib.solve_all(inst.net, origin_of(inst));
    if (rib.batched_flat()) ++flat_trials;

    std::vector<std::unique_ptr<Solver>> ref;
    for (int d = 0; d < n; ++d) {
      ref.push_back(dyn::make_solver(dyn::EngineKind::Bellman, inst.ot, weng));
      ref.back()->solve(inst.net, d, origin_of(inst));
      ASSERT_EQ(rib.column_converged(d), ref.back()->converged())
          << inst.desc << " col " << d;
      expect_identical(rib.routing(d), ref.back()->routing(),
                       inst.desc + " cold col " + std::to_string(d));
    }
    ASSERT_TRUE(rib.last_update().cold) << inst.desc;
    ASSERT_EQ(rib.num_columns(), n);
    expect_same_accounting(rib.last_update(), ref, inst.desc + " cold");

    for (int b = 0; b < kBatches; ++b) {
      const TopologyDelta d = random_delta(rng, inst);
      rib.update(d);
      if (!rib.last_update().cold && rib.last_update().changed_arcs > 0) {
        ++warm_batches;
      }
      ASSERT_EQ(static_cast<int>(rib.last_update().affected.size()), n)
          << inst.desc;
      for (int c = 0; c < n; ++c) {
        ref[static_cast<std::size_t>(c)]->update(d);
        ASSERT_EQ(rib.column_converged(c),
                  ref[static_cast<std::size_t>(c)]->converged())
            << inst.desc << " batch " << b << " col " << c;
        if (!rib.column_converged(c)) continue;
        expect_identical(rib.routing(c),
                         ref[static_cast<std::size_t>(c)]->routing(),
                         inst.desc + " batch " + std::to_string(b) + " col " +
                             std::to_string(c) + " " + d.describe());
      }
      expect_same_accounting(rib.last_update(), ref,
                             inst.desc + " batch " + std::to_string(b) + " " +
                                 d.describe());
    }
  }
  // The sweep must genuinely exercise the incremental path, the flat
  // blocked kernels, and the multi-word vertical SIMD relax — not silently
  // fall back everywhere.
  EXPECT_GT(warm_batches, 100) << "batched incremental path barely exercised";
  EXPECT_GT(flat_trials, 20) << "flat blocked kernels barely exercised";
  EXPECT_GT(vec_trials, 5) << "vertical SIMD kernels barely exercised";
}

// The mrt::par contract, verified bit-for-bit: the same instance and delta
// sequence run under thread limits 1 and 4 must produce identical columns
// AND identical work accounting after every batch.
TEST(RibDifferential, ThreadCountInvariance) {
  constexpr int kTrials = 12;
  constexpr int kBatches = 6;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng seed_rng(par::mix_seed(0x51B1, static_cast<std::uint64_t>(trial)));
    const std::uint64_t inst_seed = seed_rng.next();

    auto run = [&](int threads) {
      Rng rng(inst_seed);
      RibInstance inst = (trial % 3 == 0)   ? sat_plus_instance(rng)
                         : (trial % 3 == 1) ? chain_max_instance(rng)
                                            : lex_stack_instance(rng);
      const compile::WeightEngine eng(inst.ot);
      const compile::WeightEngine* weng = (trial % 3 != 0) ? &eng : nullptr;
      ScopedToggles toggles(true, threads, /*simd_on=*/trial % 4 != 3);
      auto rib = std::make_unique<rib::RibSolver>(inst.ot, weng);
      rib->solve_all(inst.net, origin_of(inst));
      std::vector<Routing> snaps;
      std::vector<std::vector<int>> affected;
      for (int b = 0; b < kBatches; ++b) {
        rib->update(random_delta(rng, inst));
        for (int c = 0; c < rib->num_columns(); ++c) {
          snaps.push_back(rib->routing(c));
        }
        affected.push_back(rib->last_update().affected);
      }
      return std::make_pair(std::move(snaps), std::move(affected));
    };

    auto one = run(1);
    auto four = run(4);
    ASSERT_EQ(one.first.size(), four.first.size()) << "trial " << trial;
    for (std::size_t i = 0; i < one.first.size(); ++i) {
      expect_identical(one.first[i], four.first[i],
                       "trial " + std::to_string(trial) + " snapshot " +
                           std::to_string(i));
    }
    ASSERT_EQ(one.second, four.second)
        << "trial " << trial << ": affected-set accounting diverged";
  }
}

// Deterministic work stealing under skew: a dense hub cluster plus a long
// tail makes the per-block relax cost wildly uneven, so with static
// chunking one thread would own almost all the work — exactly the profile
// the claim-counter scheduler exists for. Snapshots, affected accounting,
// and relaxation counts must still be identical at every thread count,
// with the multi-word vertical SIMD kernel engaged on the full blocks.
TEST(RibDifferential, WorkStealingSkewThreadInvariance) {
  // 48 nodes = 6 full 8-lane destination blocks. Nodes 0..15 form a dense
  // window-4 cluster (expensive columns), 16..47 a thin bidirectional tail.
  const int n = 48;
  Digraph g(n);
  Rng rng(0x51B7);
  ValueVec labels;
  auto arc = [&](int u, int v) {
    g.add_arc(u, v);
    labels.push_back(
        Value::pair(I(rng.range(1, 5)), I(rng.range(1, 5))));
  };
  for (int u = 0; u < 16; ++u) {
    for (int d = 1; d <= 4; ++d) {
      arc(u, (u + d) % 16);
      arc((u + d) % 16, u);
    }
  }
  for (int u = 15; u + 1 < n; ++u) {
    arc(u, u + 1);
    arc(u + 1, u);
  }
  OrderTransform ot = lex(ot_shortest_path(6), ot_widest_path(6));
  LabeledGraph net(std::move(g), std::move(labels));
  const compile::WeightEngine eng(ot);

  auto run = [&](int threads) {
    ScopedToggles toggles(true, threads, /*simd_on=*/true);
    rib::RibSolver rib(ot, &eng);
    rib.solve_all(net, Value::pair(I(0), Value::inf()));
    EXPECT_TRUE(rib.batched_flat());
    std::vector<Routing> snaps;
    std::vector<std::vector<int>> affected;
    std::vector<std::uint64_t> relaxations{rib.last_update().relaxations};
    Rng drng(0x51B8);
    for (int b = 0; b < 6; ++b) {
      TopologyDelta d;
      const int a =
          static_cast<int>(drng.below(static_cast<std::uint64_t>(
              net.graph().num_arcs())));
      d.arc_down(a);
      rib.update(d);
      relaxations.push_back(rib.last_update().relaxations);
      affected.push_back(rib.last_update().affected);
      for (int c = 0; c < rib.num_columns(); ++c) {
        snaps.push_back(rib.routing(c));
      }
      TopologyDelta u;
      u.arc_up(a);
      rib.update(u);
      relaxations.push_back(rib.last_update().relaxations);
      affected.push_back(rib.last_update().affected);
      for (int c = 0; c < rib.num_columns(); ++c) {
        snaps.push_back(rib.routing(c));
      }
    }
    return std::make_tuple(std::move(snaps), std::move(affected),
                           std::move(relaxations));
  };

  auto base = run(1);
  for (int threads : {2, 3, 8}) {
    auto other = run(threads);
    ASSERT_EQ(std::get<0>(base).size(), std::get<0>(other).size())
        << threads << " threads";
    for (std::size_t i = 0; i < std::get<0>(base).size(); ++i) {
      expect_identical(std::get<0>(base)[i], std::get<0>(other)[i],
                       std::to_string(threads) + " threads snapshot " +
                           std::to_string(i));
    }
    ASSERT_EQ(std::get<1>(base), std::get<1>(other))
        << threads << " threads: affected-set accounting diverged";
    ASSERT_EQ(std::get<2>(base), std::get<2>(other))
        << threads << " threads: relaxation counts diverged";
  }
}

// The rebuild skip is exact: after every frame, every flat column and a
// dyn Bellman solver (which skips under the same rule) equal the canonical
// forest recomputed from their own weights on the current topology —
// 2 × 260 random frames of arc flaps, in-family relabels and node
// crash/restart on a Gao–Rexford hierarchy and on the igp lex ladder.
TEST(RibDifferential, ForestIsCanonicalAfterEveryFrame) {
  constexpr int kFrames = 260;
  long skipped = 0;
  long rebuilt = 0;
  for (int scenario = 0; scenario < 2; ++scenario) {
    Rng rng(par::mix_seed(0x51BF, static_cast<std::uint64_t>(scenario)));
    const Scenario sc = scenario == 0
                            ? gao_rexford_hierarchy(rng, 40, 24)
                            : mrt::testing::igp_ladder(rng, 40, 24);
    const std::string name = scenario == 0 ? "gao_rexford" : "igp ladder";
    const compile::WeightEngine eng(sc.alg);
    std::vector<int> dests;
    for (int v = 0; v < sc.net.num_nodes(); v += 3) dests.push_back(v);
    rib::RibSolver rib(sc.alg, &eng);
    rib.solve(sc.net, dests, sc.origin);
    ASSERT_TRUE(rib.batched_flat()) << name;
    std::unique_ptr<Solver> bell =
        dyn::make_solver(dyn::EngineKind::Bellman, sc.alg);
    bell->solve(sc.net, dests[1], sc.origin);
    for (int f = 0; f < kFrames; ++f) {
      const TopologyDelta d = mrt::testing::random_frame(rng, sc, rib.net());
      const std::string what =
          name + " frame " + std::to_string(f) + " " + d.describe();
      rib.update(d);
      bell->update(d);
      ASSERT_TRUE(rib.batched_flat()) << what;
      for (int c = 0; c < rib.num_columns(); ++c) {
        ASSERT_TRUE(rib.column_converged(c)) << what << " col " << c;
        const Routing& r = rib.routing(c);
        const int dest = dests[static_cast<std::size_t>(c)];
        expect_identical(r,
                         mrt::testing::canonical_forest(sc.alg, rib.net(),
                                                        dest, sc.origin, r),
                         what + " col " + std::to_string(c));
      }
      ASSERT_TRUE(bell->converged()) << what;
      expect_identical(bell->routing(),
                       mrt::testing::canonical_forest(sc.alg, bell->net(),
                                                      dests[1], sc.origin,
                                                      bell->routing()),
                       what + " dyn Bellman");
      if (!rib.last_update().cold && rib.last_update().changed_arcs > 0) {
        rebuilt += rib.last_update().rebuilt_columns;
        skipped += rib.num_columns() - rib.last_update().rebuilt_columns;
      }
    }
  }
  // Both outcomes of the rule must be common, or the test shows nothing.
  EXPECT_GT(skipped, 1000);
  EXPECT_GT(rebuilt, 1000);
}

// RibStats::rebuilt_columns and dyn.rib.rebuilt_columns, pinned on a
// diamond with a tie: node 3 reaches the destination 0 at cost 2 through
// node 1 (arc a31, its witness) or node 2 (arc a32, the tying arc). The
// same counts hold on the flat kernels, on reference columns and for a
// dyn Bellman solver.
TEST(Rib, RebuiltColumnsCountOnlyDirtyLanes) {
  Digraph g(4);
  g.add_arc(1, 0);
  g.add_arc(2, 0);
  const int a31 = g.add_arc(3, 1);
  const int a32 = g.add_arc(3, 2);
  OrderTransform ot{"chain(<=,sat+)", ord_chain(8), fam_chain_add(8, 1, 1),
                    {}};
  LabeledGraph net(std::move(g), {I(1), I(1), I(1), I(1)});
  const compile::WeightEngine eng(ot);
  const bool obs_before = obs::enabled();
  obs::set_enabled(true);
  const obs::Counter& counter =
      obs::registry().counter("dyn.rib.rebuilt_columns");

  struct Step {
    TopologyDelta delta;
    int rebuilt;
    int witness;  // node 3's witness after the step (-1: no route)
  };
  const std::vector<Step> steps = {
      {TopologyDelta{}.arc_down(a32), 0, a31},  // a non-witness arc goes down
      {TopologyDelta{}.arc_up(a32), 1, a31},    // the tying arc comes back up
      {TopologyDelta{}.arc_down(a31), 1, a32},  // the witness goes down
      {TopologyDelta{}.arc_up(a31), 1, a31},    // a smaller tying arc returns
  };
  const compile::WeightEngine* const engines[] = {&eng, nullptr};
  for (const compile::WeightEngine* weng : engines) {
    const std::string table = weng != nullptr ? "flat" : "reference";
    rib::RibSolver rib(ot, weng);
    rib.solve(net, {0}, I(0));
    ASSERT_EQ(rib.batched_flat(), weng != nullptr);
    EXPECT_EQ(rib.last_update().rebuilt_columns, 1) << table;
    std::unique_ptr<Solver> bell =
        dyn::make_solver(dyn::EngineKind::Bellman, ot);
    bell->solve(net, 0, I(0));
    EXPECT_TRUE(bell->last_update().rebuilt);
    for (const Step& s : steps) {
      const std::string what = table + " " + s.delta.describe();
      const std::uint64_t before = counter.value();
      rib.update(s.delta);
      bell->update(s.delta);
      EXPECT_EQ(rib.last_update().rebuilt_columns, s.rebuilt) << what;
      EXPECT_EQ(counter.value() - before, static_cast<std::uint64_t>(s.rebuilt))
          << what;
      EXPECT_EQ(bell->last_update().rebuilt, s.rebuilt == 1) << what;
      EXPECT_EQ(rib.routing(0).next_arc[3], s.witness) << what;
      EXPECT_EQ(bell->routing().next_arc[3], s.witness) << what;
    }
  }
  obs::set_enabled(obs_before);
}

TEST(Rib, SolveBindsAndMaterializesColumns) {
  Rng rng(0x51B2);
  RibInstance inst = sat_plus_instance(rng);
  const compile::WeightEngine eng(inst.ot);
  rib::RibSolver rib(inst.ot, &eng);
  const int n = inst.net.num_nodes();

  // Duplicate + unordered destination subset: columns are independent.
  std::vector<int> dests{n - 1, 0, n - 1};
  rib.solve(inst.net, dests, I(0));
  EXPECT_EQ(rib.num_columns(), 3);
  EXPECT_EQ(rib.dests(), dests);
  EXPECT_TRUE(rib.converged());
  EXPECT_TRUE(rib.batched_flat());
  EXPECT_NE(rib.journal_stream(), 0u);
  expect_identical(rib.routing(0), rib.routing(2), "duplicate columns");
  const rib::RibStats& st = rib.last_update();
  EXPECT_TRUE(st.cold);
  EXPECT_EQ(st.columns, 3);
  EXPECT_EQ(st.cold_columns, 3);
  EXPECT_EQ(st.affected, (std::vector<int>{n, n, n}));
  EXPECT_EQ(st.affected_max(), n);
  EXPECT_DOUBLE_EQ(st.affected_mean_fraction(), 1.0);

  // Without an engine the reference columns serve the same bytes.
  rib::RibSolver boxed(inst.ot);
  boxed.solve(inst.net, dests, I(0));
  EXPECT_FALSE(boxed.batched_flat());
  for (int c = 0; c < 3; ++c) {
    expect_identical(rib.routing(c), boxed.routing(c),
                     "flat vs boxed col " + std::to_string(c));
  }

  EXPECT_THROW(rib.routing(3), std::logic_error);
  rib::RibSolver empty(inst.ot);
  EXPECT_THROW(empty.solve(inst.net, {}, I(0)), std::logic_error);
  EXPECT_THROW(empty.solve(inst.net, {n}, I(0)), std::logic_error);
  EXPECT_THROW(empty.update(TopologyDelta{}.arc_down(0)), std::logic_error);
}

// Warm multi-destination maintenance on a ring: single arc flaps must not
// re-relax the whole table on average — the shared-invalidation payoff the
// perf gate measures on large topologies, pinned here functionally.
TEST(Rib, WarmAffectedSetsStayLocalOnRing) {
  Rng rng(0x51B3);
  const int n = 32;
  Digraph g = ring(n);
  ValueVec labels;
  for (int id = 0; id < g.num_arcs(); ++id) labels.push_back(I(1));
  OrderTransform ot{"chain(<=,sat+)", ord_chain(64), fam_chain_add(64, 1, 1),
                    {}};
  LabeledGraph net(std::move(g), std::move(labels));
  const compile::WeightEngine eng(ot);
  rib::RibSolver rib(ot, &eng);
  rib.solve_all(net, I(0));

  double fraction_sum = 0;
  int updates = 0;
  const int m = net.graph().num_arcs();
  for (int b = 0; b < 100; ++b) {
    const int arc = static_cast<int>(rng.below(static_cast<std::uint64_t>(m)));
    rib.update(TopologyDelta{}.arc_down(arc));
    ASSERT_FALSE(rib.last_update().cold);
    fraction_sum += rib.last_update().affected_mean_fraction();
    ++updates;
    rib.update(TopologyDelta{}.arc_up(arc));
    fraction_sum += rib.last_update().affected_mean_fraction();
    ++updates;
  }
  EXPECT_LT(fraction_sum / updates, 0.75)
      << "batched warm updates re-relaxed almost the whole table on average";
}

}  // namespace
}  // namespace mrt
