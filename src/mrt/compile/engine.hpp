// The WeightEngine seam: one compiled kernel set per algebra, one set of
// precompiled per-arc label programs per network. Consumers take an
// optional CompiledNet (dijkstra) or WeightEngine (the dyn engines, the
// batched RIB, the path-vector simulator); when present and fully compiled
// they run the flat kernels, otherwise they fall back to the boxed
// interpreter — always with identical results.
#pragma once

#include <memory>
#include <vector>

#include "mrt/compile/compile.hpp"
#include "mrt/routing/labeled_graph.hpp"

namespace mrt {
namespace compile {

/// Owns the compiled kernels of one algebra. Construction compiles (once)
/// and publishes obs counters: compile.compiled, compile.fallbacks,
/// compile.fallback.<reason>. The MRT_COMPILE env toggle (default on, read
/// at construction; "0" disables) forces the boxed path for A/B runs.
class WeightEngine {
 public:
  explicit WeightEngine(const OrderTransform& alg);

  /// True iff the algebra compiled and MRT_COMPILE did not disable it.
  bool compiled() const { return enabled_ && algebra_.ok(); }
  Fallback fallback() const { return algebra_.fallback(); }
  const CompiledAlgebra& algebra() const { return algebra_; }

 private:
  CompiledAlgebra algebra_;
  bool enabled_ = true;
};

/// Per-network compiled state: one apply program per arc. ok() requires the
/// engine compiled AND every arc label compiled — a single bad label sends
/// the whole network to the boxed path (counted as compile.fallback.bad_label).
/// ok() is decided once, by make(), and holds for the binding's life.
class CompiledNet {
 public:
  static CompiledNet make(const WeightEngine& eng, const LabeledGraph& net);

  bool ok() const { return ok_; }
  const CompiledAlgebra& algebra() const { return *alg_; }
  int words() const { return alg_->words(); }
  const CompiledLabel& label(int arc_id) const {
    return labels_[static_cast<std::size_t>(arc_id)];
  }

  /// Stores one arc's new label program (the delta-aware path of mrt::dyn —
  /// a relabel re-encodes only the changed arc, not the network). The
  /// label must be a member of the algebra's family, which dyn::DynNet
  /// checks before a batch applies; every member of a compiled family
  /// compiles. A net that is not ok() keeps no programs.
  void relabel(int arc_id, const Value& label);

 private:
  const CompiledAlgebra* alg_ = nullptr;
  std::vector<CompiledLabel> labels_;
  bool ok_ = false;
};

}  // namespace compile
}  // namespace mrt
