// Shared helpers for the metarouting test suite.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "mrt/core/bases.hpp"
#include "mrt/core/checker.hpp"
#include "mrt/core/quadrants.hpp"
#include "mrt/routing/labeled_graph.hpp"

namespace mrt::testing {

inline Value I(std::int64_t v) { return Value::integer(v); }

/// A finite order transform from explicit tables (carrier {0..n-1}).
inline OrderTransform make_ot(std::vector<std::vector<std::uint8_t>> leq,
                              std::vector<std::vector<int>> fns,
                              std::string name = "t") {
  const int n = static_cast<int>(leq.size());
  return OrderTransform{std::move(name), ord_table("ord", std::move(leq)),
                        fam_table("fns", n, std::move(fns)),
                        {}};
}

/// Asserts that an inferred verdict never contradicts the oracle's.
inline void expect_consistent(Prop p, Tri inferred, Tri oracle,
                              const std::string& context) {
  if (inferred == Tri::Unknown || oracle == Tri::Unknown) return;
  EXPECT_EQ(inferred, oracle) << context << ": property " << to_string(p)
                              << " inferred " << to_string(inferred)
                              << " but oracle says " << to_string(oracle);
}

/// Asserts an exact rule: whenever the oracle decides, inference must have
/// decided identically (components were fully decided by construction).
inline void expect_exact(Prop p, Tri inferred, Tri oracle,
                         const std::string& context) {
  ASSERT_NE(oracle, Tri::Unknown) << context << ": oracle failed to decide";
  EXPECT_EQ(inferred, oracle) << context << ": exact rule for "
                              << to_string(p) << " disagrees with oracle";
}

/// The reference for masked solves: the surviving subgraph of `net` as a
/// standalone LabeledGraph (dead arcs dropped, node set preserved). Arcs keep
/// their relative order; subgraph arc k is net arc (*sub_to_net)[k].
inline LabeledGraph alive_subgraph(const LabeledGraph& net,
                                   const SurvivingTopology& topo,
                                   std::vector<int>* sub_to_net = nullptr) {
  Digraph g(net.num_nodes());
  ValueVec labels;
  if (sub_to_net != nullptr) sub_to_net->clear();
  for (int id = 0; id < net.graph().num_arcs(); ++id) {
    if (!topo.arc_ok(id)) continue;
    const Arc& a = net.graph().arc(id);
    if (!topo.node_ok(a.src) || !topo.node_ok(a.dst)) continue;
    g.add_arc(a.src, a.dst);
    labels.push_back(net.label(id));
    if (sub_to_net != nullptr) sub_to_net->push_back(id);
  }
  return LabeledGraph(std::move(g), std::move(labels));
}

}  // namespace mrt::testing
