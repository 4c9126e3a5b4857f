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

DynNet::DynNet(LabeledGraph net, FnFamilyPtr family)
    : net_(std::move(net)), family_(std::move(family)) {
  masks_.arc_alive.assign(static_cast<std::size_t>(net_.graph().num_arcs()),
                          true);
  masks_.node_up.assign(static_cast<std::size_t>(net_.num_nodes()), true);
}

DynNet::Applied DynNet::apply(const TopologyDelta& delta) {
  const int narcs = net_.graph().num_arcs();
  // Validate the whole batch before mutating anything: a bad id or label
  // anywhere in it throws with the net, its masks, labels and version
  // untouched.
  for (const DeltaOp& op : delta.ops) {
    if (op.kind == DeltaOp::Kind::NodeDown ||
        op.kind == DeltaOp::Kind::NodeUp) {
      MRT_REQUIRE(op.node >= 0 && op.node < num_nodes());
    } else {
      MRT_REQUIRE(op.arc >= 0 && op.arc < narcs);
    }
    if (op.kind == DeltaOp::Kind::Relabel && family_ != nullptr) {
      MRT_REQUIRE(family_->contains(op.label));
    }
  }
  // Snapshot-and-diff: a batch reports its *net* effect, so an arc or node
  // that flaps down-then-up inside one batch (common in replayed simulator
  // event streams) produces no spurious invalidation work downstream. Only
  // what the batch names can change: its arcs, its nodes, and the arcs
  // incident to its nodes, so only those are snapshot and diffed.
  const Digraph& g = net_.graph();
  std::vector<int> arcs;
  std::vector<int> nodes;
  std::vector<std::pair<int, Value>> label_before;  // one per relabeled arc
  for (const DeltaOp& op : delta.ops) {
    if (op.kind == DeltaOp::Kind::NodeDown ||
        op.kind == DeltaOp::Kind::NodeUp) {
      nodes.push_back(op.node);
      const std::vector<int>& out = g.out_arcs(op.node);
      const std::vector<int>& in = g.in_arcs(op.node);
      arcs.insert(arcs.end(), out.begin(), out.end());
      arcs.insert(arcs.end(), in.begin(), in.end());
    } else {
      arcs.push_back(op.arc);
      if (op.kind == DeltaOp::Kind::Relabel) {
        label_before.emplace_back(op.arc, net_.label(op.arc));
      }
    }
  }
  auto sort_unique = [](std::vector<int>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  sort_unique(arcs);
  sort_unique(nodes);
  // Every entry holds its arc's label from before the batch, so any one of
  // an arc's duplicates will do.
  std::sort(label_before.begin(), label_before.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  label_before.erase(std::unique(label_before.begin(), label_before.end(),
                                 [](const auto& a, const auto& b) {
                                   return a.first == b.first;
                                 }),
                     label_before.end());
  std::vector<char> alive_before(arcs.size());
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    alive_before[i] = arc_alive(arcs[i]) ? 1 : 0;
  }
  std::vector<char> node_before(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    node_before[i] = node_up(nodes[i]) ? 1 : 0;
  }
  for (const DeltaOp& op : delta.ops) {
    switch (op.kind) {
      case DeltaOp::Kind::ArcDown:
        masks_.arc_alive[static_cast<std::size_t>(op.arc)] = false;
        break;
      case DeltaOp::Kind::ArcUp:
        masks_.arc_alive[static_cast<std::size_t>(op.arc)] = true;
        break;
      case DeltaOp::Kind::Relabel:
        net_.relabel(op.arc, op.label);
        break;
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
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    const int id = arcs[i];
    const bool relabeled = std::binary_search(
        out.relabeled_arcs.begin(), out.relabeled_arcs.end(), id);
    const bool alive_now = arc_alive(id);
    // A relabel of a dead arc changes no reachable route: the new label is
    // reported in relabeled_arcs (consumers re-encode their compiled label
    // programs from it), but the arc only enters changed_arcs — and thus
    // seeds witness invalidation — once it is actually alive. When it later
    // comes up, the alive transition puts it in changed_arcs then.
    if (alive_now != (alive_before[i] != 0) || (relabeled && alive_now)) {
      out.changed_arcs.push_back(id);
    }
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const bool was = node_before[i] != 0;
    const bool now = node_up(nodes[i]);
    if (was && !now) out.nodes_down.push_back(nodes[i]);
    if (!was && now) out.nodes_up.push_back(nodes[i]);
  }
  return out;
}

}  // namespace mrt::dyn
