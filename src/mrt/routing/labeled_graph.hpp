// A topology whose arcs carry labels of an order transform: the "configured
// network" that the routing algorithms solve.
//
// Semantics (paper section II): the weight of a path p = (i1,i2),…,(ik-1,ik)
// toward a destination that originates `a` is f_(i1,i2)(… f_(ik-1,ik)(a) …):
// routes propagate from the destination outward, each arc applying its
// label's function.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "mrt/core/quadrants.hpp"
#include "mrt/graph/digraph.hpp"

namespace mrt {

class LabeledGraph {
 public:
  LabeledGraph(Digraph g, ValueVec arc_labels);

  const Digraph& graph() const { return g_; }
  int num_nodes() const { return g_.num_nodes(); }
  const Value& label(int arc_id) const;

  /// Replaces one arc's label (policy change experiments).
  void relabel(int arc_id, Value label);

 private:
  Digraph g_;
  ValueVec labels_;
};

/// Labels every arc with a random label of `alg`'s function family.
LabeledGraph label_randomly(const OrderTransform& alg, Digraph g, Rng& rng);

/// The surviving topology of a network: which arcs are up and which nodes
/// are up. An arc carries routes only when it and both its endpoints are up.
/// Empty masks mean "everything alive", so the fault-free solvers and
/// validators are the special case of the masked ones. dyn::DynNet keeps its
/// admin and crash state in this form; the chaos oracles build it from a
/// simulator run.
struct SurvivingTopology {
  std::vector<bool> arc_alive;  ///< per arc id; empty = all alive
  std::vector<bool> node_up;    ///< per node; empty = all up

  bool arc_ok(int id) const {
    return arc_alive.empty() || arc_alive[static_cast<std::size_t>(id)];
  }
  bool node_ok(int v) const {
    return node_up.empty() || node_up[static_cast<std::size_t>(v)];
  }
};

/// A per-destination routing solution: for each node, an optional weight
/// (nullopt = no route) and the chosen out-arc (-1 = none / destination).
struct Routing {
  std::vector<std::optional<Value>> weight;
  std::vector<int> next_arc;

  bool has_route(int v) const {
    return weight[static_cast<std::size_t>(v)].has_value();
  }
};

/// Follows next_arc pointers from `src`; returns the node sequence, or
/// nullopt if a forwarding loop is encountered before the destination.
std::optional<std::vector<int>> forwarding_path(const LabeledGraph& net,
                                                const Routing& r, int src,
                                                int dest);

}  // namespace mrt
