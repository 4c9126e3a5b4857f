// Differential convergence oracles: after a faulted simulator run reaches
// quiescence, cross-check the protocol outcome against the algebraic ground
// truth on the *surviving* topology.
//
//   stability     — the routing is a local optimum (Bellman fixed point) of
//                   the surviving subgraph; crashed nodes carry no state.
//   extension     — every route is the exact extension of the next hop's
//                   current route over an alive arc (no stale-RIB ghosts).
//   reachability  — nodes with no surviving path to an up destination have
//                   withdrawn; a crashed destination withdraws everywhere.
//   global        — when the algebra is monotone (M) and nondecreasing (ND),
//                   local optima are global optima, so the converged weights
//                   must be ≲-equivalent to generalized Dijkstra's solution
//                   on the surviving subgraph (kleene_closure agrees with
//                   dijkstra by EXP-PERF/test_closure, so one solver serves
//                   as the closure-side witness too).
//
// Divergent runs (event cap hit) get no oracle verdicts — divergence itself
// is the observation, and the campaign scores it against the scenario's
// expectation.
#pragma once

#include "mrt/dyn/solver.hpp"
#include "mrt/routing/optimality.hpp"
#include "mrt/sim/path_vector.hpp"

namespace mrt::chaos {

struct OracleVerdict {
  bool checked = false;  ///< oracle applicable and evaluated
  bool pass = true;
  std::string detail;  ///< first violation, empty when passing
};

struct OracleReport {
  bool converged = false;
  OracleVerdict stability;
  OracleVerdict extension;
  OracleVerdict reachability;
  OracleVerdict global;

  bool all_pass() const {
    return stability.pass && extension.pass && reachability.pass &&
           global.pass;
  }
  /// First failing oracle's name + detail (empty when all pass).
  std::string first_failure() const;
};

struct OracleOptions {
  bool drop_top_routes = false;  ///< must mirror SimOptions::drop_top_routes
  /// Run the global-agreement oracle (caller asserts the algebra is M + ND;
  /// run_campaign derives this from the checker once per scenario).
  bool check_global = false;
  /// Optional compiled weight engine for the scenario's algebra: the global
  /// oracle then solves the surviving topology on the flat path. The verdict
  /// is identical either way (compiled solvers are differentially checked
  /// against boxed); only the wall clock changes.
  const compile::WeightEngine* engine = nullptr;
  /// Optional solved baseline on the *unfaulted* network. When present (and
  /// dyn::enabled()), the global oracle derives its ground truth by cloning
  /// the baseline and replaying the run's surviving-topology delta through
  /// Solver::update() — incremental work proportional to the fault's blast
  /// radius instead of a fresh solve per run. Verdicts are identical to the
  /// cold path (that equivalence is what the dyn differential suite pins).
  const Solver* baseline = nullptr;
};

/// The surviving subgraph's arc/node masks, as the sim reported them.
SurvivingTopology surviving_topology(const SimResult& res);

/// Evaluates every applicable oracle for a quiesced run.
OracleReport check_oracles(const OrderTransform& alg, const LabeledGraph& net,
                           int dest, const Value& origin, const SimResult& res,
                           const OracleOptions& opts = {});

/// The oracle-during-the-run mode: checks the stability oracle at *every*
/// quiescent point the run recorded (SimOptions::record_quiescent), not just
/// the end state — each point's routing must be a local optimum of that
/// point's surviving topology. Applies to divergent runs too (the points
/// before the event cap are real stable states). Caveat: a message-loss
/// window leaves a genuinely stale RIB-in until its resync repairs it, so
/// scenarios with loss faults should keep this mode off — the transient
/// points it would refute are stale by construction, not by bug.
OracleVerdict check_quiescent_points(const OrderTransform& alg,
                                     const LabeledGraph& net, int dest,
                                     const Value& origin, const SimResult& res,
                                     bool drop_top_routes = false);

}  // namespace mrt::chaos
