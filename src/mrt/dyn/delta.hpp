// Topology deltas: the change vocabulary of the dynamic routing layer.
//
// A TopologyDelta is a finite batch of edits to a configured network — arc
// admin down/up, arc relabel, node crash/restart — and DynNet is the mutable
// topology state those edits apply to: a LabeledGraph plus arc-admin /
// node-up masks and a monotonically increasing version counter. The masks
// are a SurvivingTopology, the form the chaos oracles and the masked
// dijkstra (routing/dijkstra.hpp) take: an arc is *alive* iff it is admin-up
// and both endpoints are up, so a delta built from a simulator run
// reproduces exactly the surviving topology the chaos oracles validate
// against.
#pragma once

#include <cstdint>
#include <vector>

#include "mrt/core/fn_family.hpp"
#include "mrt/routing/labeled_graph.hpp"

namespace mrt::dyn {

/// One topology edit, bound to a concrete arc or node.
struct DeltaOp {
  enum class Kind : unsigned char {
    ArcDown,   ///< admin-disable arc `arc`
    ArcUp,     ///< admin-enable arc `arc`
    Relabel,   ///< replace arc `arc`'s label with `label`
    NodeDown,  ///< crash node `node` (all incident arcs die with it)
    NodeUp,    ///< restart node `node`
  };
  Kind kind = Kind::ArcDown;
  int arc = -1;   ///< target arc (ArcDown / ArcUp / Relabel)
  int node = -1;  ///< target node (NodeDown / NodeUp)
  Value label;    ///< Relabel only

  std::string describe() const;
};

/// A batch of topology edits, applied atomically by DynNet::apply (one
/// version bump per batch, not per op).
struct TopologyDelta {
  std::vector<DeltaOp> ops;

  bool empty() const { return ops.empty(); }

  // Builder helpers (chainable through repeated calls).
  TopologyDelta& arc_down(int arc);
  TopologyDelta& arc_up(int arc);
  TopologyDelta& relabel(int arc, Value label);
  TopologyDelta& node_down(int node);
  TopologyDelta& node_up(int node);

  /// The delta that takes an all-up topology to the given admin state:
  /// ArcDown for every false arc, NodeDown for every false node. Empty masks
  /// mean "all up". This is how a simulator run's fault outcome is fed back
  /// into the solver seam.
  static TopologyDelta to_state(const std::vector<bool>& arc_admin_up,
                                const std::vector<bool>& node_up);

  std::string describe() const;
};

/// Mutable topology state: the bound network of a Solver. Wraps a
/// LabeledGraph with admin/crash masks and a version counter; label edits go
/// through here so consumers can cheaply detect staleness via version().
class DynNet {
 public:
  DynNet() : net_(Digraph(0), {}) {}
  /// `family` is the label family of the algebra the net is bound under
  /// (the solvers pass alg.fns): apply() refuses a relabel outside it.
  /// Without one, labels are not checked.
  explicit DynNet(LabeledGraph net, FnFamilyPtr family = nullptr);

  const LabeledGraph& net() const { return net_; }
  const Digraph& graph() const { return net_.graph(); }
  int num_nodes() const { return net_.num_nodes(); }
  const Value& label(int arc_id) const { return net_.label(arc_id); }

  bool arc_admin_up(int arc) const { return masks_.arc_ok(arc); }
  bool node_up(int node) const { return masks_.node_ok(node); }
  /// Usable for routing: admin-up and both endpoints up.
  bool arc_alive(int arc) const {
    if (!masks_.arc_ok(arc)) return false;
    const Arc& a = net_.graph().arc(arc);
    return masks_.node_ok(a.src) && masks_.node_ok(a.dst);
  }
  /// The admin (arc_alive) and crash (node_up) masks, in the form the masked
  /// solvers take: dijkstra over these solves the surviving topology.
  const SurvivingTopology& masks() const { return masks_; }

  /// Bumped once per applied delta batch.
  std::uint64_t version() const { return version_; }

  /// What a delta batch actually changed (idempotent ops — downing a down
  /// arc — produce nothing). The incremental solvers seed their affected
  /// sets from this.
  struct Applied {
    /// Alive-status changed, or label changed while alive. A relabel of a
    /// dead arc is *not* a change for routing purposes (nothing can route
    /// through it), so it appears only in relabeled_arcs; the arc re-enters
    /// changed_arcs when it next comes alive.
    std::vector<int> changed_arcs;
    /// Every arc whose label changed, alive or not — consumers that cache
    /// compiled label programs re-encode from this list unconditionally so
    /// the label is already right when a dead arc revives.
    std::vector<int> relabeled_arcs;
    std::vector<int> nodes_down;      ///< transitioned up → down
    std::vector<int> nodes_up;        ///< transitioned down → up
    bool any() const {
      return !changed_arcs.empty() || !nodes_down.empty() ||
             !nodes_up.empty();
    }
  };

  /// Applies a batch of edits; every list in the result is sorted + deduped.
  /// Costs O(|ops| + the degrees of the nodes it names), not O(|E| + |V|):
  /// only the named arcs and nodes and the arcs incident to the named nodes
  /// are diffed. Every op's arc or node id, and every relabel's label
  /// against the bound family, is checked before anything is mutated, so a
  /// batch with an out-of-range id or an out-of-family label throws
  /// std::logic_error and leaves the net (masks, labels, version) exactly
  /// as it was.
  Applied apply(const TopologyDelta& delta);

 private:
  LabeledGraph net_;
  FnFamilyPtr family_;  // null: labels unchecked
  SurvivingTopology masks_;  // admin state per arc id, crash state per node
  std::uint64_t version_ = 0;
};

}  // namespace mrt::dyn
