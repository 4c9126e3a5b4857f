#include "mrt/routing/kbest.hpp"

#include <algorithm>
#include <cstdint>

#include "mrt/obs/obs.hpp"
#include "mrt/support/require.hpp"

namespace mrt {

ValueVec k_best(const PreorderSet& ord, const ValueVec& xs, int k) {
  MRT_REQUIRE(k >= 1);
  ValueVec sorted = normalize_set(xs);  // dedup exact duplicates
  std::sort(sorted.begin(), sorted.end(),
            [&ord](const Value& a, const Value& b) {
              const Cmp c = ord.cmp(a, b);
              MRT_REQUIRE(c != Cmp::Incomp);  // total order required
              if (c == Cmp::Less) return true;
              if (c == Cmp::Greater) return false;
              return a.compare(b) < 0;  // deterministic within a class
            });
  if (sorted.size() > static_cast<std::size_t>(k)) {
    sorted.resize(static_cast<std::size_t>(k));
  }
  return sorted;
}

namespace {

// Post-hoc witness scan, the mechanical dual of kbest_certified: for each
// kept entry, the smallest out-arc id whose one-arc extension of some
// successor entry reproduces it (the origin entry at dest takes precedence
// and gets -1, exactly as the certificate skips it).
void fill_witness_arcs(const OrderTransform& alg, const LabeledGraph& net,
                       int dest, const Value& origin, KBestResult& r) {
  const int n = net.num_nodes();
  r.witness_arcs.assign(static_cast<std::size_t>(n), {});
  for (int u = 0; u < n; ++u) {
    const ValueVec& wu = r.weights[static_cast<std::size_t>(u)];
    std::vector<int>& au = r.witness_arcs[static_cast<std::size_t>(u)];
    au.assign(wu.size(), -1);
    for (std::size_t i = 0; i < wu.size(); ++i) {
      if (u == dest && wu[i] == origin) continue;
      for (int id : net.graph().out_arcs(u)) {
        const int v = net.graph().arc(id).dst;
        bool achieved = false;
        for (const Value& wv : r.weights[static_cast<std::size_t>(v)]) {
          if (alg.fns->apply(net.label(id), wv) == wu[i]) {
            achieved = true;
            break;
          }
        }
        if (achieved) {
          au[i] = id;  // out_arcs is ascending, so the first hit is smallest
          break;
        }
      }
    }
  }
}

}  // namespace

KBestResult kbest_bellman(const OrderTransform& alg, const LabeledGraph& net,
                          int dest, const Value& origin, int k,
                          const KBestOptions& opts) {
  const int n = net.num_nodes();
  MRT_REQUIRE(dest >= 0 && dest < n && k >= 1);
  std::uint64_t relaxations = 0;
  std::uint64_t reductions = 0;
  KBestResult out;
  out.weights.assign(static_cast<std::size_t>(n), {});
  out.weights[static_cast<std::size_t>(dest)] = {origin};

  for (out.iterations = 0; out.iterations < opts.max_iterations;
       ++out.iterations) {
    bool changed = false;
    std::vector<ValueVec> next(static_cast<std::size_t>(n));
    for (int u = 0; u < n; ++u) {
      ValueVec pool;
      if (u == dest) pool.push_back(origin);
      for (int id : net.graph().out_arcs(u)) {
        const int v = net.graph().arc(id).dst;
        for (const Value& w : out.weights[static_cast<std::size_t>(v)]) {
          ++relaxations;
          pool.push_back(alg.fns->apply(net.label(id), w));
        }
      }
      ++reductions;
      ValueVec reduced = k_best(*alg.ord, pool, k);
      if (!(reduced == out.weights[static_cast<std::size_t>(u)])) {
        changed = true;
      }
      next[static_cast<std::size_t>(u)] = std::move(reduced);
    }
    out.weights = std::move(next);
    if (!changed) {
      out.converged = true;
      break;
    }
  }
  fill_witness_arcs(alg, net, dest, origin, out);

  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    reg.counter("kbest.runs").add(1);
    reg.counter("kbest.relaxations").add(relaxations);
    reg.counter("kbest.reductions").add(reductions);
    reg.counter("kbest.iterations")
        .add(static_cast<std::uint64_t>(out.iterations));
    reg.histogram("kbest.iterations_to_fixpoint")
        .record(static_cast<std::uint64_t>(out.iterations));
  }
  return out;
}

bool kbest_certified(const OrderTransform& alg, const LabeledGraph& net,
                     int dest, const Value& origin, const KBestResult& r) {
  for (int u = 0; u < net.num_nodes(); ++u) {
    for (const Value& w : r.weights[static_cast<std::size_t>(u)]) {
      if (u == dest && w == origin) continue;
      bool achieved = false;
      for (int id : net.graph().out_arcs(u)) {
        const int v = net.graph().arc(id).dst;
        for (const Value& wv : r.weights[static_cast<std::size_t>(v)]) {
          if (alg.fns->apply(net.label(id), wv) == w) {
            achieved = true;
            break;
          }
        }
        if (achieved) break;
      }
      if (!achieved) return false;
    }
  }
  return true;
}

}  // namespace mrt
