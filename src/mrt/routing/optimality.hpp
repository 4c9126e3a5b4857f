// Ground-truth validators ("the proof component, by measurement"):
// exhaustive path enumeration decides global optimality on small graphs,
// and the Bellman fixed-point condition decides local optimality (stability)
// of any routing.
#pragma once

#include "mrt/routing/labeled_graph.hpp"

namespace mrt {

struct PathEnumOptions {
  std::size_t max_paths = 200'000;
};

/// Weights of *all* simple paths src → dest (dest originating `origin`).
/// The trivial path (src == dest) contributes `origin`.
/// Throws if the path count exceeds the budget.
ValueVec all_path_weights(const OrderTransform& alg, const LabeledGraph& net,
                          int src, int dest, const Value& origin,
                          const PathEnumOptions& opts = {});

/// min_≲ over all simple-path weights: the globally optimal weight set.
ValueVec global_min_set(const OrderTransform& alg, const LabeledGraph& net,
                        int src, int dest, const Value& origin,
                        const PathEnumOptions& opts = {});

/// Is `w` globally optimal for src → dest, i.e. ≲-minimal among all simple
/// path weights and actually achieved (equivalent to some path weight)?
bool is_globally_optimal(const OrderTransform& alg, const LabeledGraph& net,
                         int src, int dest, const Value& origin,
                         const Value& w, const PathEnumOptions& opts = {});

/// Local optimality (stability): every node's route is a best extension of
/// its neighbours' routes — the Bellman fixed-point / Sobrinho "in
/// equilibrium" condition. Unreachable nodes must have no candidates.
/// With `drop_top_routes`, candidates whose weight is ⊤ count as no route
/// (Sobrinho's φ semantics, matching SimOptions::drop_top_routes).
bool is_locally_optimal(const OrderTransform& alg, const LabeledGraph& net,
                        int dest, const Value& origin, const Routing& r,
                        bool drop_top_routes = false);

/// All nodes with a route can actually forward to dest without loops.
bool forwarding_consistent(const LabeledGraph& net, const Routing& r,
                           int dest);

// ---------------------------------------------------------------------------
// Fault-aware oracles (mrt::chaos entry points)
// ---------------------------------------------------------------------------

/// Local optimality (stability) restricted to the surviving topology:
/// candidates are drawn only over alive arcs between up nodes, and crashed
/// nodes must carry no route at all. This is the post-fault quiescence
/// oracle of the chaos campaigns.
bool is_locally_optimal(const OrderTransform& alg, const LabeledGraph& net,
                        int dest, const Value& origin, const Routing& r,
                        const SurvivingTopology& topo,
                        bool drop_top_routes = false);

/// "No stale-RIB ghosts": every selected route must be the exact extension
/// of the next hop's *current* route over an alive arc — weight[u] ==
/// f_label(weight[head(next_arc[u])]) — and the (up) destination must carry
/// exactly its originated weight. A converged simulator state violating this
/// kept routing state that its neighbour no longer advertises.
bool routes_are_coherent_extensions(const OrderTransform& alg,
                                    const LabeledGraph& net, int dest,
                                    const Value& origin, const Routing& r,
                                    const SurvivingTopology& topo = {},
                                    std::string* why = nullptr);

/// Withdrawal completeness: every node with no surviving arc-path to an up
/// destination must have no route (a crashed destination withdraws
/// everything). The converse is deliberately not required — policy algebras
/// (⊤-filtering, valley-free export) legitimately deny reachable nodes.
bool unreachable_nodes_have_no_route(const LabeledGraph& net, int dest,
                                     const Routing& r,
                                     const SurvivingTopology& topo = {},
                                     std::string* why = nullptr);

}  // namespace mrt
