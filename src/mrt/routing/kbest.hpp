// k-best routing via the reduction idea — the paper's section VI outlook
// ("we hope that problems like finding k-best paths can be tackled using the
// reduction idea"), implemented.
//
// r_k keeps the k most-preferred *distinct* weights of a set (total
// preference order required). It satisfies Wongseelashote's reduction axioms
// (1) and (2) unconditionally, and axiom (3) exactly for monotone+injective
// functions — i.e. the M and N properties of Figure 2; the counterexample
// for non-injective monotone functions is in the tests, tying the k-best
// problem to the same property vocabulary as everything else.
//
// kbest_bellman iterates X_i ← r_k( ⋃ f_(i,j)(X_j) ∪ origin·[i = dest] ) to
// a fixed point: the k best distinct *walk* weights toward the destination.
#pragma once

#include "mrt/routing/labeled_graph.hpp"

namespace mrt {

/// The k most-preferred distinct elements (total preorder; deterministic
/// tie-break by canonical value order within equivalence classes).
ValueVec k_best(const PreorderSet& ord, const ValueVec& xs, int k);

struct KBestResult {
  /// Per node: up to k best distinct route weights, best first.
  std::vector<ValueVec> weights;
  /// Per node, parallel to `weights`: the witness arc achieving each entry —
  /// the smallest out-arc id whose one-arc extension of some successor entry
  /// equals the weight. -1 for the origin entry at the destination (which
  /// needs no arc) and for unachieved entries of a non-converged run.
  std::vector<std::vector<int>> witness_arcs;
  int iterations = 0;
  bool converged = false;
};

struct KBestOptions {
  int max_iterations = 300;
};

KBestResult kbest_bellman(const OrderTransform& alg, const LabeledGraph& net,
                          int dest, const Value& origin, int k,
                          const KBestOptions& opts = {});

/// Certificate check: every reported weight is either the origin (at dest)
/// or a one-arc extension of a reported weight of some successor — i.e. the
/// result is a genuine fixed point of the k-best Bellman operator.
bool kbest_certified(const OrderTransform& alg, const LabeledGraph& net,
                     int dest, const Value& origin, const KBestResult& r);

}  // namespace mrt
