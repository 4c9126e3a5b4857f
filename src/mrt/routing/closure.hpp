// The algebraic-quadrant solver: Kleene/Carré closure over a bisemigroup
// (Gondran–Minoux / Carré's "Graphs and Networks", the paper's [3], [10]).
//
// Given an arc-weight matrix A over (S, ⊕, ⊗), computes the quasi-inverse
//   A* = I ⊕ A ⊕ A² ⊕ …
// by the Floyd–Warshall–Kleene elimination scheme. A*[i][j] summarizes the
// weights of all walks i → j: with (ℕ, min, +) this is all-pairs shortest
// paths; with (ℕ, max, min) all-pairs widest paths; with (ℕ, +, ×) on a DAG
// it counts paths. Convergence of the entry-wise loop iteration requires the
// ⊕-idempotent "no improving cycles" condition (the ND property of Fig. 3);
// the k-iteration variant exposes divergence for measurement.
#pragma once

#include <optional>
#include <vector>

#include "mrt/core/quadrants.hpp"
#include "mrt/graph/digraph.hpp"

namespace mrt {

/// A dense weight matrix; absent entries (no arc / not yet reachable) are
/// std::nullopt, which behaves as the ⊕-identity / ⊗-absorber "no walk".
using WeightMatrix = std::vector<std::vector<std::optional<Value>>>;

/// Builds the arc matrix of a labeled-by-weight graph: entry (i, j) is the
/// ⊕-summary of all parallel arcs i → j.
WeightMatrix arc_matrix(const Bisemigroup& alg, const Digraph& g,
                        const ValueVec& arc_weights);

struct ClosureOptions {
  /// Entry-wise fixpoint bound for the iterative variant.
  int max_power = 64;
};

struct ClosureResult {
  WeightMatrix star;  ///< A*[i][j]; diagonal includes the empty walk when
                      ///< the algebra has a ⊗-identity.
  bool converged = true;  ///< iterative variant only
  int iterations = 0;     ///< iterative variant only
};

/// Floyd–Warshall–Kleene elimination: exact for ⊕-idempotent, nondecreasing
/// algebras (simple-path-summarizing semirings).
ClosureResult kleene_closure(const Bisemigroup& alg, WeightMatrix a);

/// Power iteration: B ← I ⊕ A ⊗ B until fixpoint or the bound; also valid
/// for non-idempotent algebras on DAGs (e.g. path counting). Without a
/// ⊗-identity it iterates B ← A ⊕ A ⊗ B from B = ∅ instead, which gives
/// A⁺ (no empty walk), matching kleene_closure's diagonal.
ClosureResult iterative_closure(const Bisemigroup& alg, const WeightMatrix& a,
                                const ClosureOptions& opts = {});

}  // namespace mrt
