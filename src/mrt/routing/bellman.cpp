#include "mrt/routing/bellman.hpp"

#include <atomic>
#include <cstdint>

#include "mrt/obs/obs.hpp"
#include "mrt/par/par.hpp"
#include "mrt/support/require.hpp"

namespace mrt {
namespace {

// Nodes per parallel chunk when relaxing a round: each node's relaxation is
// independent (it reads the previous routing and writes only its own slot),
// so rounds split across the pool without changing any result.
constexpr std::size_t kNodeGrain = 32;

// Best candidate at node u given neighbours' routes in `r`.
struct Candidate {
  std::optional<Value> weight;
  int arc = -1;
};

Candidate best_candidate(const OrderTransform& alg, const LabeledGraph& net,
                         const CsrAdjacency& out, int u, const Routing& r,
                         std::uint64_t& relaxations) {
  Candidate best;
  for (int e = out.begin(u); e < out.end(u); ++e) {
    const int id = out.arc[static_cast<std::size_t>(e)];
    const int v = out.head[static_cast<std::size_t>(e)];
    const auto& wv = r.weight[static_cast<std::size_t>(v)];
    if (!wv) continue;
    ++relaxations;
    Value cand = alg.fns->apply(net.label(id), *wv);
    if (!best.weight ||
        lt_of(alg.ord->cmp(cand, *best.weight))) {
      best.weight = std::move(cand);
      best.arc = id;
    }
  }
  return best;
}

}  // namespace

bool bellman_step(const OrderTransform& alg, const LabeledGraph& net,
                  int dest, const Value& origin, Routing& r) {
  const int n = net.num_nodes();
  // One flat CSR walk per relaxation instead of two pointer hops through
  // vector<vector<int>> — built once per graph, shared by every round.
  const CsrAdjacency& out = net.graph().csr_out();
  std::atomic<std::uint64_t> relax_total{0};
  std::atomic<bool> changed_any{false};
  Routing next = r;
  par::parallel_for(
      static_cast<std::size_t>(n), kNodeGrain,
      [&](std::size_t ub, std::size_t ue) {
        // Per-chunk locals: counters flush once per chunk, and the chunk
        // writes only its own slots of `next`.
        std::uint64_t relaxations = 0;
        bool changed = false;
        for (std::size_t uu = ub; uu < ue; ++uu) {
          const int u = static_cast<int>(uu);
          if (u == dest) {
            // The destination always keeps its originated route.
            next.weight[uu] = origin;
            next.next_arc[uu] = -1;
            continue;
          }
          Candidate cand = best_candidate(alg, net, out, u, r, relaxations);
          auto& cur = next.weight[uu];
          auto& cur_arc = next.next_arc[uu];
          if (!cand.weight) {
            if (cur) changed = true;
            cur = std::nullopt;
            cur_arc = -1;
            continue;
          }
          if (cur) {
            // Keep the current route if it is still available and not
            // strictly worse than the best candidate.
            const int arc = cur_arc;
            if (arc >= 0) {
              const int v = net.graph().arc(arc).dst;
              const auto& wv = r.weight[static_cast<std::size_t>(v)];
              if (wv) {
                Value via_cur = alg.fns->apply(net.label(arc), *wv);
                if (!lt_of(alg.ord->cmp(*cand.weight, via_cur))) {
                  if (!(via_cur == *cur)) changed = true;
                  cur = std::move(via_cur);
                  continue;
                }
              }
            }
          }
          if (!cur || !(*cand.weight == *cur) || cur_arc != cand.arc) {
            changed = changed || !cur || !(*cand.weight == *cur);
            cur = cand.weight;
            cur_arc = cand.arc;
          }
        }
        relax_total.fetch_add(relaxations, std::memory_order_relaxed);
        if (changed) changed_any.store(true, std::memory_order_relaxed);
      });
  r = std::move(next);
  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    reg.counter("bellman.steps").add(1);
    reg.counter("bellman.relaxations")
        .add(relax_total.load(std::memory_order_relaxed));
  }
  return changed_any.load(std::memory_order_relaxed);
}

BellmanResult bellman_sync(const OrderTransform& alg, const LabeledGraph& net,
                           int dest, const Value& origin,
                           const BellmanOptions& opts) {
  const int n = net.num_nodes();
  static obs::Histogram& solve_ns =
      obs::registry().histogram("bellman.solve_ns");
  obs::ScopedTimer timer(solve_ns);
  MRT_REQUIRE(dest >= 0 && dest < n);
  BellmanResult out;
  out.routing.weight.assign(static_cast<std::size_t>(n), std::nullopt);
  out.routing.next_arc.assign(static_cast<std::size_t>(n), -1);
  out.routing.weight[static_cast<std::size_t>(dest)] = origin;
  for (out.iterations = 0; out.iterations < opts.max_iterations;
       ++out.iterations) {
    if (!bellman_step(alg, net, dest, origin, out.routing)) {
      out.converged = true;
      break;
    }
  }
  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    reg.counter("bellman.runs").add(1);
    reg.counter("bellman.iterations")
        .add(static_cast<std::uint64_t>(out.iterations));
    reg.histogram("bellman.iterations_to_fixpoint")
        .record(static_cast<std::uint64_t>(out.iterations));
  }
  return out;
}

}  // namespace mrt
