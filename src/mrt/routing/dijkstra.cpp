#include "mrt/routing/dijkstra.hpp"

#include <cstdint>
#include <vector>

#include "mrt/obs/obs.hpp"
#include "mrt/support/require.hpp"

namespace mrt {
namespace {

struct Counters {
  std::uint64_t scan_steps = 0;    // extract-min work (the heap-op analogue)
  std::uint64_t relaxations = 0;   // label applications along in-arcs
  std::uint64_t improvements = 0;  // relaxations that improved a route
  std::uint64_t settled = 0;

  void flush() const {
    if (!obs::enabled()) return;
    obs::Registry& reg = obs::registry();
    reg.counter("dijkstra.calls").add(1);
    reg.counter("dijkstra.scan_steps").add(scan_steps);
    reg.counter("dijkstra.relaxations").add(relaxations);
    reg.counter("dijkstra.improvements").add(improvements);
    reg.counter("dijkstra.settled").add(settled);
  }
};

Routing dijkstra_boxed(const OrderTransform& alg, const LabeledGraph& net,
                       int dest, const Value& origin,
                       const SurvivingTopology& topo, Counters& c) {
  const int n = net.num_nodes();
  Routing r;
  r.weight.assign(static_cast<std::size_t>(n), std::nullopt);
  r.next_arc.assign(static_cast<std::size_t>(n), -1);
  r.weight[static_cast<std::size_t>(dest)] = origin;

  std::vector<bool> settled_set(static_cast<std::size_t>(n), false);
  const PreorderSet& ord = *alg.ord;

  // O(V² + VE) selection loop: robust for arbitrary total preorders and the
  // graph sizes of the experiments; a d-heap variant adds nothing here
  // because cmp() dominates.
  for (;;) {
    int best = -1;
    for (int v = 0; v < n; ++v) {
      ++c.scan_steps;
      if (settled_set[static_cast<std::size_t>(v)] ||
          !r.weight[static_cast<std::size_t>(v)]) {
        continue;
      }
      if (best < 0 ||
          lt_of(ord.cmp(*r.weight[static_cast<std::size_t>(v)],
                        *r.weight[static_cast<std::size_t>(best)]))) {
        best = v;
      }
    }
    if (best < 0) break;
    settled_set[static_cast<std::size_t>(best)] = true;
    ++c.settled;
    const Value& wb = *r.weight[static_cast<std::size_t>(best)];

    // Relax arcs *into* best's routing state: an arc (u, best) lets u route
    // via best with weight f_label(w_best). best is up (only up nodes ever
    // hold a weight), so the arc is alive iff it and its tail are up.
    for (int id : net.graph().in_arcs(best)) {
      const int u = net.graph().arc(id).src;
      if (!topo.arc_ok(id) || !topo.node_ok(u) ||
          settled_set[static_cast<std::size_t>(u)]) {
        continue;
      }
      ++c.relaxations;
      Value cand = alg.fns->apply(net.label(id), wb);
      auto& wu = r.weight[static_cast<std::size_t>(u)];
      if (!wu || lt_of(ord.cmp(cand, *wu))) {
        ++c.improvements;
        wu = std::move(cand);
        r.next_arc[static_cast<std::size_t>(u)] = id;
      }
    }
  }
  return r;
}

// Same loop, same tie-breaks, flat weights: selection and relaxation touch
// only fixed-size word vectors; Values materialize only in the returned
// Routing.
Routing dijkstra_flat(const LabeledGraph& net, int dest,
                      const std::uint64_t* origin_w,
                      const compile::CompiledNet& cn,
                      const SurvivingTopology& topo, Counters& c) {
  const int n = net.num_nodes();
  const compile::CompiledAlgebra& ca = cn.algebra();
  const std::size_t stride = static_cast<std::size_t>(cn.words());

  std::vector<std::uint64_t> w(static_cast<std::size_t>(n) * stride, 0);
  std::vector<std::uint8_t> present(static_cast<std::size_t>(n), 0);
  std::vector<int> next_arc(static_cast<std::size_t>(n), -1);
  std::vector<bool> settled_set(static_cast<std::size_t>(n), false);
  auto wp = [&](int v) { return w.data() + static_cast<std::size_t>(v) * stride; };

  for (std::size_t k = 0; k < stride; ++k)
    wp(dest)[k] = origin_w[k];
  present[static_cast<std::size_t>(dest)] = 1;

  std::vector<std::uint64_t> cand(stride);
  for (;;) {
    int best = -1;
    for (int v = 0; v < n; ++v) {
      ++c.scan_steps;
      if (settled_set[static_cast<std::size_t>(v)] ||
          !present[static_cast<std::size_t>(v)]) {
        continue;
      }
      if (best < 0 || lt_of(ca.compare(wp(v), wp(best)))) best = v;
    }
    if (best < 0) break;
    settled_set[static_cast<std::size_t>(best)] = true;
    ++c.settled;

    for (int id : net.graph().in_arcs(best)) {
      const int u = net.graph().arc(id).src;
      if (!topo.arc_ok(id) || !topo.node_ok(u) ||
          settled_set[static_cast<std::size_t>(u)]) {
        continue;
      }
      ++c.relaxations;
      for (std::size_t k = 0; k < stride; ++k) cand[k] = wp(best)[k];
      ca.apply(cn.label(id), cand.data());
      if (!present[static_cast<std::size_t>(u)] ||
          lt_of(ca.compare(cand.data(), wp(u)))) {
        ++c.improvements;
        for (std::size_t k = 0; k < stride; ++k) wp(u)[k] = cand[k];
        present[static_cast<std::size_t>(u)] = 1;
        next_arc[static_cast<std::size_t>(u)] = id;
      }
    }
  }

  Routing r;
  r.weight.assign(static_cast<std::size_t>(n), std::nullopt);
  r.next_arc = std::move(next_arc);
  for (int v = 0; v < n; ++v) {
    if (present[static_cast<std::size_t>(v)])
      r.weight[static_cast<std::size_t>(v)] = ca.decode(wp(v));
  }
  return r;
}

}  // namespace

Routing dijkstra(const OrderTransform& alg, const LabeledGraph& net, int dest,
                 const Value& origin, const compile::CompiledNet* cn,
                 const SurvivingTopology& topo, std::uint64_t* relaxations) {
  const int n = net.num_nodes();
  MRT_REQUIRE(dest >= 0 && dest < n);
  static obs::Histogram& solve_ns =
      obs::registry().histogram("dijkstra.solve_ns");
  obs::ScopedTimer timer(solve_ns);
  std::vector<std::uint64_t> origin_w;
  bool flat = false;
  if (cn != nullptr && cn->ok()) {
    origin_w.assign(static_cast<std::size_t>(cn->words()), 0);
    flat = cn->algebra().encode(origin, origin_w.data());
  }
  Counters c;
  Routing r;
  if (!topo.node_ok(dest)) {
    r.weight.assign(static_cast<std::size_t>(n), std::nullopt);
    r.next_arc.assign(static_cast<std::size_t>(n), -1);
  } else if (flat) {
    r = dijkstra_flat(net, dest, origin_w.data(), *cn, topo, c);
  } else {
    r = dijkstra_boxed(alg, net, dest, origin, topo, c);
  }
  c.flush();
  if (relaxations != nullptr) *relaxations += c.relaxations;
  return r;
}

}  // namespace mrt
