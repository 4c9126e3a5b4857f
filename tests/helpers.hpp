// Shared helpers for the metarouting test suite.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "mrt/core/bases.hpp"
#include "mrt/core/checker.hpp"
#include "mrt/core/combinators.hpp"
#include "mrt/core/quadrants.hpp"
#include "mrt/dyn/delta.hpp"
#include "mrt/routing/labeled_graph.hpp"
#include "mrt/sim/scenario.hpp"

namespace mrt::testing {

inline Value I(std::int64_t v) { return Value::integer(v); }

/// A finite order transform from explicit tables (carrier {0..n-1}).
inline OrderTransform make_ot(std::vector<std::vector<std::uint8_t>> leq,
                              std::vector<std::vector<int>> fns,
                              std::string name = "t") {
  const int n = static_cast<int>(leq.size());
  return OrderTransform{std::move(name), ord_table("ord", std::move(leq)),
                        fam_table("fns", n, std::move(fns)),
                        {}};
}

/// Asserts that an inferred verdict never contradicts the oracle's.
inline void expect_consistent(Prop p, Tri inferred, Tri oracle,
                              const std::string& context) {
  if (inferred == Tri::Unknown || oracle == Tri::Unknown) return;
  EXPECT_EQ(inferred, oracle) << context << ": property " << to_string(p)
                              << " inferred " << to_string(inferred)
                              << " but oracle says " << to_string(oracle);
}

/// Asserts an exact rule: whenever the oracle decides, inference must have
/// decided identically (components were fully decided by construction).
inline void expect_exact(Prop p, Tri inferred, Tri oracle,
                         const std::string& context) {
  ASSERT_NE(oracle, Tri::Unknown) << context << ": oracle failed to decide";
  EXPECT_EQ(inferred, oracle) << context << ": exact rule for "
                              << to_string(p) << " disagrees with oracle";
}

/// The reference for masked solves: the surviving subgraph of `net` as a
/// standalone LabeledGraph (dead arcs dropped, node set preserved). Arcs keep
/// their relative order; subgraph arc k is net arc (*sub_to_net)[k].
inline LabeledGraph alive_subgraph(const LabeledGraph& net,
                                   const SurvivingTopology& topo,
                                   std::vector<int>* sub_to_net = nullptr) {
  Digraph g(net.num_nodes());
  ValueVec labels;
  if (sub_to_net != nullptr) sub_to_net->clear();
  for (int id = 0; id < net.graph().num_arcs(); ++id) {
    if (!topo.arc_ok(id)) continue;
    const Arc& a = net.graph().arc(id);
    if (!topo.node_ok(a.src) || !topo.node_ok(a.dst)) continue;
    g.add_arc(a.src, a.dst);
    labels.push_back(net.label(id));
    if (sub_to_net != nullptr) sub_to_net->push_back(id);
  }
  return LabeledGraph(std::move(g), std::move(labels));
}

/// What `before` -> `after` changed, by a scan of every arc and node: the
/// reference for DynNet::apply's Applied lists, which it computes from the
/// arcs and nodes a batch names. Arcs are relabeled when their label
/// differs; changed when their alive state differs, or when relabeled and
/// alive after; nodes go down or up when their crash state differs.
inline dyn::DynNet::Applied full_scan_applied(const dyn::DynNet& before,
                                              const dyn::DynNet& after) {
  dyn::DynNet::Applied out;
  for (int id = 0; id < after.graph().num_arcs(); ++id) {
    const bool relabeled = !(before.label(id) == after.label(id));
    if (relabeled) out.relabeled_arcs.push_back(id);
    const bool alive = after.arc_alive(id);
    if (alive != before.arc_alive(id) || (relabeled && alive)) {
      out.changed_arcs.push_back(id);
    }
  }
  for (int v = 0; v < after.num_nodes(); ++v) {
    if (before.node_up(v) && !after.node_up(v)) out.nodes_down.push_back(v);
    if (!before.node_up(v) && after.node_up(v)) out.nodes_up.push_back(v);
  }
  return out;
}

/// The canonical witness forest of the weights in `r` (docs/DYN.md), built
/// layer by layer: layer 0 is the destination (when up and routed, at
/// `origin`); a routed up node joins layer k when some alive out-arc
/// u->h, h in a layer below k, achieves — apply(label, w[h]) ≃ w[u] — and
/// takes the smallest such arc id as its witness and the achieved value as
/// its weight. Nodes in no layer lose their route.
inline Routing canonical_forest(const OrderTransform& alg,
                                const dyn::DynNet& net, int dest,
                                const Value& origin, const Routing& r) {
  const int n = net.num_nodes();
  Routing out;
  out.weight.assign(static_cast<std::size_t>(n), std::nullopt);
  out.next_arc.assign(static_cast<std::size_t>(n), -1);
  if (!net.node_up(dest) || !r.weight[static_cast<std::size_t>(dest)]) {
    return out;
  }
  out.weight[static_cast<std::size_t>(dest)] = origin;
  std::vector<char> placed(static_cast<std::size_t>(n), 0);
  placed[static_cast<std::size_t>(dest)] = 1;
  for (bool grew = true; grew;) {
    grew = false;
    std::vector<std::pair<int, int>> layer;  // (node, witness arc)
    for (int u = 0; u < n; ++u) {
      const auto& wu = r.weight[static_cast<std::size_t>(u)];
      if (placed[static_cast<std::size_t>(u)] || !net.node_up(u) || !wu) {
        continue;
      }
      for (int id : net.graph().out_arcs(u)) {
        const int h = net.graph().arc(id).dst;
        if (!net.arc_alive(id) || h == u ||
            !placed[static_cast<std::size_t>(h)]) {
          continue;
        }
        const Value cand = alg.fns->apply(
            net.label(id), *out.weight[static_cast<std::size_t>(h)]);
        if (equiv_of(alg.ord->cmp(cand, *wu))) {
          layer.emplace_back(u, id);
          break;
        }
      }
    }
    for (const auto& [u, id] : layer) {
      const int h = net.graph().arc(id).dst;
      out.weight[static_cast<std::size_t>(u)] = alg.fns->apply(
          net.label(id), *out.weight[static_cast<std::size_t>(h)]);
      out.next_arc[static_cast<std::size_t>(u)] = id;
      placed[static_cast<std::size_t>(u)] = 1;
      grew = true;
    }
  }
  return out;
}

/// examples/bgp_decision's ladder label: relationship, one AS hop, IGP cost.
inline Value igp_label(const Value& gr, std::int64_t cost) {
  return Value::pair(Value::pair(gr, Value::integer(1)), Value::integer(cost));
}

/// A Gao–Rexford hierarchy under lex(lex(gao_rexford, hops), igp <= 9),
/// every arc carrying a random IGP cost in [1, 9].
inline Scenario igp_ladder(Rng& rng, int nodes, int extra_links) {
  Scenario sc = gao_rexford_hierarchy(rng, nodes, extra_links);
  ValueVec labels;
  for (int id = 0; id < sc.net.graph().num_arcs(); ++id) {
    labels.push_back(igp_label(sc.net.label(id), rng.range(1, 9)));
  }
  sc.alg = lex(lex(gao_rexford_algebra(), ot_hop_count()),
               ot_shortest_path(9));
  sc.net = LabeledGraph(sc.net.graph(), std::move(labels));
  sc.origin = igp_label(Value::integer(0), 0);
  return sc;
}

/// A random frame of 1–3 ops on a gao_rexford_hierarchy or igp_ladder
/// scenario whose current state is `net`: arc flaps (an arc goes down, or a
/// down arc comes back), in-family relabels (a fresh IGP cost in [1, 9] on
/// the ladder; a relationship turned peer, or back to the generated one, on
/// the plain hierarchy) and node crashes and restarts. Downs and ups are
/// drawn evenly, so few arcs and nodes stay down.
inline dyn::TopologyDelta random_frame(Rng& rng, const Scenario& sc,
                                       const dyn::DynNet& net) {
  const int m = net.graph().num_arcs();
  const int n = net.num_nodes();
  std::vector<int> down_arcs;
  for (int a = 0; a < m; ++a) {
    if (!net.arc_admin_up(a)) down_arcs.push_back(a);
  }
  std::vector<int> down_nodes;
  for (int v = 0; v < n; ++v) {
    if (!net.node_up(v)) down_nodes.push_back(v);
  }
  dyn::TopologyDelta d;
  const int ops = 1 + static_cast<int>(rng.below(3));
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t kind = rng.below(8);
    const int a = static_cast<int>(rng.below(static_cast<std::uint64_t>(m)));
    if (kind < 5) {
      if (!down_arcs.empty() && rng.chance(0.5)) {
        d.arc_up(rng.pick(down_arcs));
      } else {
        d.arc_down(a);
      }
    } else if (kind < 7) {
      const Value& now = net.label(a);
      if (now.is_tuple()) {
        d.relabel(a, igp_label(now.first().first(), rng.range(1, 9)));
      } else {
        const Value& generated = sc.net.label(a);
        d.relabel(a, now == generated ? gr_peer_label() : generated);
      }
    } else if (!down_nodes.empty() && rng.chance(0.5)) {
      d.node_up(rng.pick(down_nodes));
    } else {
      d.node_down(static_cast<int>(rng.below(static_cast<std::uint64_t>(n))));
    }
  }
  return d;
}

}  // namespace mrt::testing
