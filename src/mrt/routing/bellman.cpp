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

namespace {

// Iteration state of the flat path: one fixed-stride word block per node.
struct FlatRouting {
  std::size_t stride = 0;
  std::vector<std::uint64_t> w;
  std::vector<std::uint8_t> present;
  std::vector<int> arc;

  void init(int n, std::size_t s) {
    stride = s;
    w.assign(static_cast<std::size_t>(n) * s, 0);
    present.assign(static_cast<std::size_t>(n), 0);
    arc.assign(static_cast<std::size_t>(n), -1);
  }
  std::uint64_t* at(int v) {
    return w.data() + static_cast<std::size_t>(v) * stride;
  }
  const std::uint64_t* at(int v) const {
    return w.data() + static_cast<std::size_t>(v) * stride;
  }
};

bool words_eq(const std::uint64_t* a, const std::uint64_t* b,
              std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    if (a[k] != b[k]) return false;
  }
  return true;
}

// The boxed step, word for word, on flat weights. Word equality stands in
// for Value equality (the encoding is canonical and injective), so the
// change/convergence detection is identical.
bool bellman_step_flat(const LabeledGraph& net, int dest,
                       const std::uint64_t* origin_w, FlatRouting& r,
                       const compile::CompiledNet& cn) {
  const int n = net.num_nodes();
  const CsrAdjacency& out = net.graph().csr_out();
  const compile::CompiledAlgebra& ca = cn.algebra();
  const std::size_t stride = r.stride;
  std::atomic<std::uint64_t> relax_total{0};
  std::atomic<bool> changed_any{false};
  FlatRouting next = r;
  par::parallel_for(
      static_cast<std::size_t>(n), kNodeGrain,
      [&](std::size_t ub, std::size_t ue) {
        std::uint64_t relaxations = 0;
        bool changed = false;
        // Reused per-thread scratch rows: the step runs once per Bellman
        // iteration, so constructing these here allocated twice per chunk
        // per iteration.
        thread_local std::vector<std::uint64_t> best, cand;
        if (best.size() < stride) best.resize(stride);
        if (cand.size() < stride) cand.resize(stride);
        for (std::size_t uu = ub; uu < ue; ++uu) {
          const int u = static_cast<int>(uu);
          if (u == dest) {
            for (std::size_t k = 0; k < stride; ++k) next.at(u)[k] = origin_w[k];
            next.present[uu] = 1;
            next.arc[uu] = -1;
            continue;
          }
          bool have = false;
          int best_arc = -1;
          for (int e = out.begin(u); e < out.end(u); ++e) {
            const int id = out.arc[static_cast<std::size_t>(e)];
            const int v = out.head[static_cast<std::size_t>(e)];
            if (!r.present[static_cast<std::size_t>(v)]) continue;
            ++relaxations;
            for (std::size_t k = 0; k < stride; ++k) cand[k] = r.at(v)[k];
            ca.apply(cn.label(id), cand.data());
            if (!have || lt_of(ca.compare(cand.data(), best.data()))) {
              best.swap(cand);
              best_arc = id;
              have = true;
            }
          }
          if (!have) {
            if (next.present[uu]) changed = true;
            next.present[uu] = 0;
            next.arc[uu] = -1;
            continue;
          }
          if (next.present[uu]) {
            const int arc = next.arc[uu];
            if (arc >= 0) {
              const int v = net.graph().arc(arc).dst;
              if (r.present[static_cast<std::size_t>(v)]) {
                for (std::size_t k = 0; k < stride; ++k) cand[k] = r.at(v)[k];
                ca.apply(cn.label(arc), cand.data());
                if (!lt_of(ca.compare(best.data(), cand.data()))) {
                  if (!words_eq(cand.data(), next.at(u), stride))
                    changed = true;
                  for (std::size_t k = 0; k < stride; ++k)
                    next.at(u)[k] = cand[k];
                  continue;
                }
              }
            }
          }
          const bool same =
              next.present[uu] && words_eq(best.data(), next.at(u), stride);
          if (!same || next.arc[uu] != best_arc) {
            changed = changed || !same;
            for (std::size_t k = 0; k < stride; ++k) next.at(u)[k] = best[k];
            next.present[uu] = 1;
            next.arc[uu] = best_arc;
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

// Exit conversion from the flat state to the public Routing.
Routing flat_to_routing(const FlatRouting& fr,
                        const compile::CompiledAlgebra& ca) {
  const int n = static_cast<int>(fr.present.size());
  Routing r;
  r.weight.assign(static_cast<std::size_t>(n), std::nullopt);
  r.next_arc = fr.arc;
  for (int v = 0; v < n; ++v) {
    if (fr.present[static_cast<std::size_t>(v)])
      r.weight[static_cast<std::size_t>(v)] = ca.decode(fr.at(v));
  }
  return r;
}

}  // namespace

BellmanResult bellman_sync(const OrderTransform& alg, const LabeledGraph& net,
                           int dest, const Value& origin,
                           const BellmanOptions& opts,
                           const compile::CompiledNet* cn) {
  const int n = net.num_nodes();
  static obs::Histogram& solve_ns =
      obs::registry().histogram("bellman.solve_ns");
  obs::ScopedTimer timer(solve_ns);
  MRT_REQUIRE(dest >= 0 && dest < n);
  BellmanResult out;

  std::vector<std::uint64_t> origin_w;
  bool flat = false;
  if (cn != nullptr && cn->ok()) {
    origin_w.assign(static_cast<std::size_t>(cn->words()), 0);
    flat = cn->algebra().encode(origin, origin_w.data());
  }

  if (flat) {
    const compile::CompiledAlgebra& ca = cn->algebra();
    FlatRouting fr;
    fr.init(n, static_cast<std::size_t>(ca.words()));
    for (std::size_t k = 0; k < fr.stride; ++k) fr.at(dest)[k] = origin_w[k];
    fr.present[static_cast<std::size_t>(dest)] = 1;
    for (out.iterations = 0; out.iterations < opts.max_iterations;
         ++out.iterations) {
      if (!bellman_step_flat(net, dest, origin_w.data(), fr, *cn)) {
        out.converged = true;
        break;
      }
    }
    out.routing = flat_to_routing(fr, ca);
  } else {
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
