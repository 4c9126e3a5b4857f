// The unified solver seam: one interface over the routing algorithms, with
// delta-aware incremental recomputation.
//
// A Solver binds (net, dest, origin) on solve() — a cold, from-scratch run —
// and thereafter accepts TopologyDelta batches through update(), recomputing
// only the affected region: routes whose witness arc died are invalidated
// transitively along the forwarding tree, and the solver re-relaxes outward
// from the invalidated frontier and the touched arc tails, warm-started from
// the previous fixed point. The license is the Daggitt–Griffin dynamic-DBF
// result (arXiv:2106.01184): under the same algebraic preconditions the
// checker derives for correctness of the batch solvers (ND + M, strictly
// increasing for general convergence), the fixed point is unique and reached
// from *any* starting state — so seeding from the pre-delta solution instead
// of ⊤ changes the work, never the answer. See docs/DYN.md for the argument
// and for what is guaranteed when the license does not hold.
//
// Both engines produce *canonical* routings: after convergence, each routed
// node's witness arc is the smallest alive arc id achieving its best
// extension. Cold and warm runs therefore agree byte-for-byte whenever the
// fixed point is unique (always, for the antisymmetric algebras the
// differential suites sweep), rather than merely ≲-equivalently.
//
// The MRT_DYN env toggle (default on; "0" disables, dyn::set_enabled for
// in-process A/B) forces every update() to a cold full solve — identical
// results, pre-dyn work profile.
#pragma once

#include <memory>

#include "mrt/compile/engine.hpp"
#include "mrt/dyn/delta.hpp"

namespace mrt {

namespace dyn {

/// Work accounting of the last update() (or solve(); solve is always cold).
struct UpdateStats {
  bool cold = false;  ///< full re-solve (toggle off, unconverged, or solve())
  int affected = 0;   ///< nodes re-relaxed by the incremental pass
  int total = 0;      ///< nodes in the bound network
  int changed_arcs = 0;
  std::uint64_t relaxations = 0;
  bool rebuilt = false;  ///< the canonical witness forest was rebuilt

  double affected_fraction() const {
    return total > 0 ? static_cast<double>(affected) / total : 0.0;
  }
};

/// True unless MRT_DYN=0 (read once) or set_enabled(false); when false,
/// update() applies the delta and re-solves cold — the pre-dyn behaviour.
bool enabled();
/// In-process override for A/B benches and tests (wins over the env).
void set_enabled(bool on);

/// Round cap of the Bellman engine's Gauss–Seidel worklist (matches
/// BellmanOptions::max_iterations). rib::RibSolver's flat columns cap at the
/// same value, which byte identity with this engine requires.
inline constexpr int kMaxRounds = 1000;

/// Journals an applied delta batch on `stream`: one UpdateBegin record, then
/// one record per changed arc and per node transition, all carrying the
/// post-apply topology version of `net`, so provenance can map a route
/// change back to the exact ops of the batch that caused it.
void journal_delta(std::uint32_t stream, const TopologyDelta& delta,
                   const DynNet::Applied& ap, const DynNet& net);

}  // namespace dyn

/// The solver seam. Implementations are the routing algorithms themselves —
/// generalized Dijkstra and synchronous Bellman–Ford — refactored from
/// one-shot entry points into engines that hold the solution state between
/// topology changes.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Cold full solve; binds (net, dest, origin) as the dynamic baseline.
  /// May be called again to rebind.
  virtual const Routing& solve(const LabeledGraph& net, int dest,
                               const Value& origin) = 0;

  /// Applies `delta` to the bound topology and recomputes incrementally
  /// (cold when dyn::enabled() is false or the previous state did not
  /// converge). Requires a prior solve(). A delta with an out-of-range id
  /// or a relabel outside the algebra's label family throws
  /// std::logic_error and leaves the solver untouched.
  virtual const Routing& update(const dyn::TopologyDelta& delta) = 0;

  /// The current solution (valid after solve()).
  virtual const Routing& routing() const = 0;

  /// The bound topology state (masks + version).
  virtual const dyn::DynNet& net() const = 0;

  /// The bound destination (valid after solve()).
  virtual int dest() const = 0;

  /// The journal stream this solver's flight-recorder records carry (a
  /// fresh id per solve() binding; 0 before the first solve). Provenance
  /// queries (obs/provenance.hpp) filter the process-global journal by it.
  virtual std::uint32_t journal_stream() const = 0;

  /// False if the last solve/update hit its iteration cap (possible for
  /// non-increasing algebras on the Bellman engine).
  virtual bool converged() const = 0;

  /// Work accounting of the last solve()/update().
  virtual const dyn::UpdateStats& last_update() const = 0;

  /// Deep copy, including the bound topology and solution — the cheap way
  /// to fan one baseline out across many independent delta scenarios (the
  /// chaos campaigns clone one unfaulted baseline per run).
  virtual std::unique_ptr<Solver> clone() const = 0;
};

namespace dyn {

enum class EngineKind {
  Dijkstra,  ///< greedy selection; exact for ND + M algebras
  Bellman,   ///< synchronous relaxation to the Bellman fixed point
};

/// Creates an engine. `engine` (optional, non-owning, must outlive the
/// solver and its clones) routes cold solves through the compiled flat
/// kernels; relabel deltas re-encode only the changed arcs' label programs.
std::unique_ptr<Solver> make_solver(EngineKind kind, const OrderTransform& alg,
                                    const compile::WeightEngine* engine =
                                        nullptr);

}  // namespace dyn
}  // namespace mrt
