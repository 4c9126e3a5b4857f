#include "mrt/dyn/delta.hpp"

#include <algorithm>
#include <utility>

#include "mrt/support/require.hpp"

namespace mrt::dyn {

std::string DeltaOp::describe() const {
  switch (kind) {
    case Kind::ArcDown:
      return "arc_down(" + std::to_string(arc) + ")";
    case Kind::ArcUp:
      return "arc_up(" + std::to_string(arc) + ")";
    case Kind::Relabel:
      return "relabel(" + std::to_string(arc) + ", " + label.to_string() + ")";
    case Kind::NodeDown:
      return "node_down(" + std::to_string(node) + ")";
    case Kind::NodeUp:
      return "node_up(" + std::to_string(node) + ")";
  }
  return "?";
}

TopologyDelta& TopologyDelta::arc_down(int arc) {
  DeltaOp op;
  op.kind = DeltaOp::Kind::ArcDown;
  op.arc = arc;
  ops.push_back(std::move(op));
  return *this;
}

TopologyDelta& TopologyDelta::arc_up(int arc) {
  DeltaOp op;
  op.kind = DeltaOp::Kind::ArcUp;
  op.arc = arc;
  ops.push_back(std::move(op));
  return *this;
}

TopologyDelta& TopologyDelta::relabel(int arc, Value label) {
  DeltaOp op;
  op.kind = DeltaOp::Kind::Relabel;
  op.arc = arc;
  op.label = std::move(label);
  ops.push_back(std::move(op));
  return *this;
}

TopologyDelta& TopologyDelta::node_down(int node) {
  DeltaOp op;
  op.kind = DeltaOp::Kind::NodeDown;
  op.node = node;
  ops.push_back(std::move(op));
  return *this;
}

TopologyDelta& TopologyDelta::node_up(int node) {
  DeltaOp op;
  op.kind = DeltaOp::Kind::NodeUp;
  op.node = node;
  ops.push_back(std::move(op));
  return *this;
}

TopologyDelta TopologyDelta::to_state(const std::vector<bool>& arc_admin_up,
                                      const std::vector<bool>& node_up) {
  TopologyDelta d;
  for (std::size_t a = 0; a < arc_admin_up.size(); ++a) {
    if (!arc_admin_up[a]) d.arc_down(static_cast<int>(a));
  }
  for (std::size_t v = 0; v < node_up.size(); ++v) {
    if (!node_up[v]) d.node_down(static_cast<int>(v));
  }
  return d;
}

std::string TopologyDelta::describe() const {
  std::string out = "[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) out += ", ";
    out += ops[i].describe();
  }
  out += "]";
  return out;
}

DynNet::DynNet(LabeledGraph net) : net_(std::move(net)) {
  masks_.arc_alive.assign(static_cast<std::size_t>(net_.graph().num_arcs()),
                          true);
  masks_.node_up.assign(static_cast<std::size_t>(net_.num_nodes()), true);
}

DynNet::Applied DynNet::apply(const TopologyDelta& delta) {
  const int narcs = net_.graph().num_arcs();
  // Validate the whole batch before mutating anything: a bad id anywhere in
  // it throws with the net, its masks, labels and version untouched.
  for (const DeltaOp& op : delta.ops) {
    if (op.kind == DeltaOp::Kind::NodeDown ||
        op.kind == DeltaOp::Kind::NodeUp) {
      MRT_REQUIRE(op.node >= 0 && op.node < num_nodes());
    } else {
      MRT_REQUIRE(op.arc >= 0 && op.arc < narcs);
    }
  }
  // Snapshot-and-diff: a batch reports its *net* effect, so an arc or node
  // that flaps down-then-up inside one batch (common in replayed simulator
  // event streams) produces no spurious invalidation work downstream.
  std::vector<bool> alive_before(static_cast<std::size_t>(narcs));
  for (int id = 0; id < narcs; ++id) {
    alive_before[static_cast<std::size_t>(id)] = arc_alive(id);
  }
  const std::vector<bool> node_before = masks_.node_up;
  std::vector<std::pair<int, Value>> label_before;  // first edit per arc
  for (const DeltaOp& op : delta.ops) {
    switch (op.kind) {
      case DeltaOp::Kind::ArcDown:
        masks_.arc_alive[static_cast<std::size_t>(op.arc)] = false;
        break;
      case DeltaOp::Kind::ArcUp:
        masks_.arc_alive[static_cast<std::size_t>(op.arc)] = true;
        break;
      case DeltaOp::Kind::Relabel: {
        const bool seen = std::any_of(
            label_before.begin(), label_before.end(),
            [&](const auto& p) { return p.first == op.arc; });
        if (!seen) label_before.emplace_back(op.arc, net_.label(op.arc));
        net_.relabel(op.arc, op.label);
        break;
      }
      case DeltaOp::Kind::NodeDown:
        masks_.node_up[static_cast<std::size_t>(op.node)] = false;
        break;
      case DeltaOp::Kind::NodeUp:
        masks_.node_up[static_cast<std::size_t>(op.node)] = true;
        break;
    }
  }
  ++version_;
  Applied out;
  for (const auto& [id, old_label] : label_before) {
    if (!(net_.label(id) == old_label)) out.relabeled_arcs.push_back(id);
  }
  std::sort(out.relabeled_arcs.begin(), out.relabeled_arcs.end());
  for (int id = 0; id < narcs; ++id) {
    const bool relabeled = std::binary_search(
        out.relabeled_arcs.begin(), out.relabeled_arcs.end(), id);
    const bool alive_now = arc_alive(id);
    // A relabel of a dead arc changes no reachable route: the new label is
    // reported in relabeled_arcs (consumers re-encode their compiled label
    // programs from it), but the arc only enters changed_arcs — and thus
    // seeds witness invalidation — once it is actually alive. When it later
    // comes up, the alive transition puts it in changed_arcs then.
    if (alive_now != alive_before[static_cast<std::size_t>(id)] ||
        (relabeled && alive_now)) {
      out.changed_arcs.push_back(id);
    }
  }
  for (int v = 0; v < num_nodes(); ++v) {
    const bool was = node_before[static_cast<std::size_t>(v)];
    const bool now = masks_.node_up[static_cast<std::size_t>(v)];
    if (was && !now) out.nodes_down.push_back(v);
    if (!was && now) out.nodes_up.push_back(v);
  }
  return out;
}

}  // namespace mrt::dyn
