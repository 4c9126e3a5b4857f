#include "mrt/chaos/oracles.hpp"

#include "mrt/routing/dijkstra.hpp"

namespace mrt::chaos {
namespace {

// Follows next_arc pointers from every routed node; a walk that fails to
// reach dest within n hops is a forwarding loop of mutually-supporting
// stale routes — the ghost the extension oracle exists to catch.
bool forwarding_reaches_dest(const LabeledGraph& net, const Routing& r,
                             int dest, std::string* why) {
  const int n = net.num_nodes();
  for (int u = 0; u < n; ++u) {
    if (!r.has_route(u)) continue;
    int v = u;
    for (int hops = 0; v != dest; ++hops) {
      if (hops > n) {
        if (why && why->empty()) {
          *why = "forwarding loop: node " + std::to_string(u) +
                 " never reaches the destination";
        }
        return false;
      }
      const int arc = r.next_arc[static_cast<std::size_t>(v)];
      if (arc < 0) {
        if (why && why->empty()) {
          *why = "forwarding from node " + std::to_string(u) +
                 " dead-ends at node " + std::to_string(v);
        }
        return false;
      }
      v = net.graph().arc(arc).dst;
    }
  }
  return true;
}

}  // namespace

std::string OracleReport::first_failure() const {
  if (!stability.pass) return "stability: " + stability.detail;
  if (!extension.pass) return "extension: " + extension.detail;
  if (!reachability.pass) return "reachability: " + reachability.detail;
  if (!global.pass) return "global: " + global.detail;
  return {};
}

SurvivingTopology surviving_topology(const SimResult& res) {
  return SurvivingTopology{res.arc_alive, res.node_up};
}

OracleReport check_oracles(const OrderTransform& alg, const LabeledGraph& net,
                           int dest, const Value& origin, const SimResult& res,
                           const OracleOptions& opts) {
  OracleReport out;
  out.converged = res.converged;
  if (!res.converged) return out;  // divergence is scored by the campaign

  const SurvivingTopology topo = surviving_topology(res);

  out.stability.checked = true;
  out.stability.pass = is_locally_optimal(alg, net, dest, origin, res.routing,
                                          topo, opts.drop_top_routes);
  if (!out.stability.pass) {
    out.stability.detail = "quiesced state is not a local optimum of the "
                           "surviving topology";
  }

  out.extension.checked = true;
  out.extension.pass = routes_are_coherent_extensions(
      alg, net, dest, origin, res.routing, topo, &out.extension.detail);
  if (out.extension.pass) {
    out.extension.pass = forwarding_reaches_dest(net, res.routing, dest,
                                                 &out.extension.detail);
  }

  out.reachability.checked = true;
  out.reachability.pass = unreachable_nodes_have_no_route(
      net, dest, res.routing, topo, &out.reachability.detail);

  if (opts.check_global && topo.node_ok(dest)) {
    out.global.checked = true;
    Routing truth;
    if (opts.baseline != nullptr && dyn::enabled()) {
      // Warm path: replay the run's fault outcome as a delta against the
      // unfaulted baseline; only the blast radius gets recomputed.
      std::unique_ptr<Solver> solver = opts.baseline->clone();
      truth = solver->update(res.delta);
    } else {
      // Cold path: one masked solve on the run's own net — dead arcs and
      // crashed nodes are skipped in place, no subgraph is built.
      compile::CompiledNet cn;
      if (opts.engine != nullptr) {
        cn = compile::CompiledNet::make(*opts.engine, net);
      }
      truth = dijkstra(alg, net, dest, origin, &cn, topo);
    }
    for (int v = 0; v < net.num_nodes() && out.global.pass; ++v) {
      const std::size_t vi = static_cast<std::size_t>(v);
      // ⊤-dropping protocols withdraw where dijkstra reports a ⊤ weight.
      const bool sim_has = res.routing.weight[vi].has_value();
      bool truth_has = truth.weight[vi].has_value();
      if (truth_has && opts.drop_top_routes &&
          alg.ord->is_top(*truth.weight[vi])) {
        truth_has = false;
      }
      if (!topo.node_ok(v)) {
        truth_has = false;  // a crashed node carries nothing
      }
      if (sim_has != truth_has) {
        out.global.pass = false;
        out.global.detail = "node " + std::to_string(v) + (sim_has
                                ? " holds a route where the solver has none"
                                : " lacks the route the solver computes");
        break;
      }
      if (sim_has &&
          !equiv_of(alg.ord->cmp(*res.routing.weight[vi], *truth.weight[vi]))) {
        out.global.pass = false;
        out.global.detail =
            "node " + std::to_string(v) + " converged to " +
            res.routing.weight[vi]->to_string() + " but the solver's optimum is " +
            truth.weight[vi]->to_string();
        break;
      }
    }
  }
  return out;
}

OracleVerdict check_quiescent_points(const OrderTransform& alg,
                                     const LabeledGraph& net, int dest,
                                     const Value& origin, const SimResult& res,
                                     bool drop_top_routes) {
  OracleVerdict v;
  v.checked = true;  // evaluated (vacuously true when no points recorded)
  for (std::size_t i = 0; i < res.quiescent.size(); ++i) {
    const QuiescentPoint& p = res.quiescent[i];
    const SurvivingTopology topo{p.arc_alive, p.node_up};
    if (!is_locally_optimal(alg, net, dest, origin, p.routing, topo,
                            drop_top_routes)) {
      v.pass = false;
      v.detail = "quiescent point " + std::to_string(i) + " (t=" +
                 std::to_string(p.time) +
                 ") is not a local optimum of its surviving topology";
      return v;
    }
  }
  return v;
}

}  // namespace mrt::chaos
