#include "mrt/routing/kbest.hpp"

#include <algorithm>

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

struct KBestCounters {
  std::uint64_t relaxations = 0;
  std::uint64_t reductions = 0;
};

KBestResult kbest_bellman_boxed(const OrderTransform& alg,
                                const LabeledGraph& net, int dest,
                                const Value& origin, int k,
                                const KBestOptions& opts, KBestCounters& c) {
  const int n = net.num_nodes();
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
          ++c.relaxations;
          pool.push_back(alg.fns->apply(net.label(id), w));
        }
      }
      ++c.reductions;
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
  return out;
}

// Flat iteration state: per node a concatenation of up-to-k weight words.
// The reduction sorts entry indices with the same comparator as k_best —
// compiled compare first, canonical Value order within an equivalence class
// (decoded on demand; the encoding is injective, so exact duplicates are
// exactly word-equal and land adjacent).
KBestResult kbest_bellman_flat(const LabeledGraph& net, int dest,
                               const std::uint64_t* origin_w, int k,
                               const KBestOptions& opts,
                               const compile::CompiledNet& cn,
                               KBestCounters& c) {
  const int n = net.num_nodes();
  const compile::CompiledAlgebra& ca = cn.algebra();
  const std::size_t stride = static_cast<std::size_t>(cn.words());

  using List = std::vector<std::uint64_t>;  // size() / stride entries
  std::vector<List> cur(static_cast<std::size_t>(n));
  cur[static_cast<std::size_t>(dest)].assign(origin_w, origin_w + stride);

  auto entry_less = [&](const std::uint64_t* a, const std::uint64_t* b) {
    const Cmp cmp = ca.compare(a, b);
    MRT_REQUIRE(cmp != Cmp::Incomp);  // total order required
    if (cmp == Cmp::Less) return true;
    if (cmp == Cmp::Greater) return false;
    return ca.decode(a).compare(ca.decode(b)) < 0;
  };
  auto entry_eq = [&](const std::uint64_t* a, const std::uint64_t* b) {
    for (std::size_t i = 0; i < stride; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  };

  KBestResult out;
  std::vector<std::uint64_t> pool;
  std::vector<std::size_t> order;
  for (out.iterations = 0; out.iterations < opts.max_iterations;
       ++out.iterations) {
    bool changed = false;
    std::vector<List> next(static_cast<std::size_t>(n));
    for (int u = 0; u < n; ++u) {
      pool.clear();
      if (u == dest) pool.insert(pool.end(), origin_w, origin_w + stride);
      for (int id : net.graph().out_arcs(u)) {
        const int v = net.graph().arc(id).dst;
        const List& lv = cur[static_cast<std::size_t>(v)];
        for (std::size_t e = 0; e + stride <= lv.size(); e += stride) {
          ++c.relaxations;
          const std::size_t at = pool.size();
          pool.insert(pool.end(), lv.begin() + static_cast<std::ptrdiff_t>(e),
                      lv.begin() + static_cast<std::ptrdiff_t>(e + stride));
          ca.apply(cn.label(id), pool.data() + at);
        }
      }
      ++c.reductions;
      const std::size_t entries = pool.size() / stride;
      order.resize(entries);
      for (std::size_t i = 0; i < entries; ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return entry_less(pool.data() + a * stride, pool.data() + b * stride);
      });
      List reduced;
      for (std::size_t i = 0;
           i < entries && reduced.size() < static_cast<std::size_t>(k) * stride;
           ++i) {
        const std::uint64_t* e = pool.data() + order[i] * stride;
        if (!reduced.empty() && entry_eq(e, reduced.data() + reduced.size() - stride)) {
          continue;  // exact duplicate of the previously kept entry
        }
        reduced.insert(reduced.end(), e, e + stride);
      }
      if (!(reduced == cur[static_cast<std::size_t>(u)])) changed = true;
      next[static_cast<std::size_t>(u)] = std::move(reduced);
    }
    cur = std::move(next);
    if (!changed) {
      out.converged = true;
      break;
    }
  }

  out.weights.assign(static_cast<std::size_t>(n), {});
  for (int u = 0; u < n; ++u) {
    const List& lu = cur[static_cast<std::size_t>(u)];
    for (std::size_t e = 0; e + stride <= lu.size(); e += stride) {
      out.weights[static_cast<std::size_t>(u)].push_back(
          ca.decode(lu.data() + e));
    }
  }
  return out;
}

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
                          const KBestOptions& opts,
                          const compile::CompiledNet* cn) {
  const int n = net.num_nodes();
  MRT_REQUIRE(dest >= 0 && dest < n && k >= 1);
  KBestCounters c;
  KBestResult out;
  bool flat = false;
  if (cn != nullptr && cn->ok()) {
    std::vector<std::uint64_t> origin_w(static_cast<std::size_t>(cn->words()),
                                        0);
    if (cn->algebra().encode(origin, origin_w.data())) {
      out = kbest_bellman_flat(net, dest, origin_w.data(), k, opts, *cn, c);
      flat = true;
    }
  }
  if (!flat) out = kbest_bellman_boxed(alg, net, dest, origin, k, opts, c);
  fill_witness_arcs(alg, net, dest, origin, out);

  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    reg.counter("kbest.runs").add(1);
    reg.counter("kbest.compiled_runs").add(flat ? 1 : 0);
    reg.counter("kbest.relaxations").add(c.relaxations);
    reg.counter("kbest.reductions").add(c.reductions);
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
