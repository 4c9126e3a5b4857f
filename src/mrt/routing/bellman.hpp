// Synchronous distributed Bellman–Ford over an order transform: every node
// repeatedly selects the best extension of its neighbours' current routes.
//
// This is the synchronous abstraction of a path-vector protocol; its fixed
// points are exactly the *locally optimal* (stable) routings. With an
// increasing (I) algebra it converges from any start; without, it may cycle
// — both behaviours are exercised by the experiments. The asynchronous,
// event-driven protocol lives in mrt/sim.
#pragma once

#include "mrt/routing/labeled_graph.hpp"

namespace mrt {

struct BellmanResult {
  Routing routing;
  int iterations = 0;
  bool converged = false;
};

struct BellmanOptions {
  int max_iterations = 1000;
};

/// Routes are sticky (BGP-like): a node keeps its current route while that
/// route is still available and no candidate is strictly better; otherwise
/// ties break toward the smaller arc id.
BellmanResult bellman_sync(const OrderTransform& alg, const LabeledGraph& net,
                           int dest, const Value& origin,
                           const BellmanOptions& opts = {});

/// One synchronous update step of bellman_sync's iteration (exposed for
/// tests): returns true if any node's route changed.
bool bellman_step(const OrderTransform& alg, const LabeledGraph& net,
                  int dest, const Value& origin, Routing& r);

}  // namespace mrt
