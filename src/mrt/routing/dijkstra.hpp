// Generalized Dijkstra over an order transform (Sobrinho's generalization;
// the paper's "global optima" algorithm for monotone algebras).
//
// Requirements for correctness, all *measurable* through the property
// system: the preference order must be total, the algebra nondecreasing
// (ND — no "negative arcs"), and monotone (M) for the greedy choice to be
// globally optimal. The experiment suite demonstrates both the guarantee
// and its failure when M does not hold (the paper's bandwidth ⃗× delay
// example).
#pragma once

#include <cstdint>

#include "mrt/compile/engine.hpp"
#include "mrt/routing/labeled_graph.hpp"

namespace mrt {

/// Single-destination route computation: weights of best paths from every
/// node *to* `dest`, where `dest` originates `origin`.
/// Ties (equivalent candidates) break toward the smaller node id, making
/// the result deterministic.
///
/// When `cn` is non-null and fully compiled, the selection/relaxation loops
/// run on flat weight words (see docs/COMPILE.md); results are identical to
/// the boxed path — decoding happens only at the returned Routing boundary.
///
/// `topo` restricts the solve to the surviving topology in place: an arc is
/// relaxed only when it and both its endpoints are alive, and a down `dest`
/// gives every node no route. The result equals the unmasked solve of the
/// alive subgraph (same weights; witness arcs keep `net`'s arc ids). When
/// `relaxations` is non-null, the solve adds its relaxation count to it.
Routing dijkstra(const OrderTransform& alg, const LabeledGraph& net, int dest,
                 const Value& origin,
                 const compile::CompiledNet* cn = nullptr,
                 const SurvivingTopology& topo = {},
                 std::uint64_t* relaxations = nullptr);

}  // namespace mrt
