#include "mrt/routing/closure.hpp"

#include <atomic>
#include <cstdint>

#include "mrt/obs/obs.hpp"
#include "mrt/par/par.hpp"
#include "mrt/support/require.hpp"

namespace mrt {
namespace {

using Entry = std::optional<Value>;

// Rows per parallel chunk in the matrix passes. Row relaxations within one
// elimination / multiplication step are independent, so they split across
// the pool without changing any entry.
constexpr std::size_t kRowGrain = 8;

// "No walk" behaves as the ⊕-identity and the ⊗-annihilator.
Entry opt_plus(const Bisemigroup& alg, const Entry& x, const Entry& y) {
  if (!x) return y;
  if (!y) return x;
  return alg.add->op(*x, *y);
}

Entry opt_times(const Bisemigroup& alg, const Entry& x, const Entry& y) {
  if (!x || !y) return std::nullopt;
  return alg.mul->op(*x, *y);
}

WeightMatrix identity_matrix(const Bisemigroup& alg, std::size_t n) {
  WeightMatrix id(n, std::vector<Entry>(n));
  if (auto one = alg.mul->identity()) {
    for (std::size_t i = 0; i < n; ++i) id[i][i] = *one;
  }
  return id;
}

// A dense n×n matrix of flat weights: per-entry fixed-stride word blocks
// plus a presence byte ("no walk" = absent, as with std::nullopt).
struct FlatMatrix {
  std::size_t n = 0, stride = 0;
  std::vector<std::uint64_t> w;
  std::vector<std::uint8_t> present;

  void init(std::size_t nn, std::size_t s) {
    n = nn;
    stride = s;
    w.assign(nn * nn * s, 0);
    present.assign(nn * nn, 0);
  }
  std::uint64_t* at(std::size_t i, std::size_t j) {
    return w.data() + (i * n + j) * stride;
  }
  const std::uint64_t* at(std::size_t i, std::size_t j) const {
    return w.data() + (i * n + j) * stride;
  }
  bool has(std::size_t i, std::size_t j) const { return present[i * n + j]; }
  void set(std::size_t i, std::size_t j, const std::uint64_t* src) {
    std::uint64_t* dst = at(i, j);
    for (std::size_t k = 0; k < stride; ++k) dst[k] = src[k];
    present[i * n + j] = 1;
  }

  bool operator==(const FlatMatrix& o) const {
    return present == o.present && w == o.w;
  }
};

// Encodes a boxed matrix; false if any entry is outside the compiled layout
// (the caller must then stay boxed).
bool encode_matrix(const compile::CompiledBisemigroup& cb,
                   const WeightMatrix& a, FlatMatrix& out) {
  const std::size_t n = a.size();
  out.init(n, static_cast<std::size_t>(cb.words()));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (!a[i][j]) continue;
      if (!cb.encode(*a[i][j], out.at(i, j))) return false;
      out.present[i * n + j] = 1;
    }
  }
  return true;
}

WeightMatrix decode_matrix(const compile::CompiledBisemigroup& cb,
                           const FlatMatrix& a) {
  WeightMatrix out(a.n, std::vector<Entry>(a.n));
  for (std::size_t i = 0; i < a.n; ++i) {
    for (std::size_t j = 0; j < a.n; ++j) {
      if (a.has(i, j)) out[i][j] = cb.decode(a.at(i, j));
    }
  }
  return out;
}

// a[i][j] ⊕= a[i][k] ⊗ a[k][j], reading the *current* matrix exactly like
// the boxed entry update (so the j == k self-reads match).
void relax_entry_flat(const compile::CompiledBisemigroup& cb, FlatMatrix& a,
                      std::size_t i, std::size_t k, std::size_t j,
                      std::uint64_t* t1, std::uint64_t* t2) {
  if (!a.has(i, k) || !a.has(k, j)) return;
  cb.mul(a.at(i, k), a.at(k, j), t1);
  if (a.has(i, j)) {
    cb.add(a.at(i, j), t1, t2);
    a.set(i, j, t2);
  } else {
    a.set(i, j, t1);
  }
}

ClosureResult kleene_closure_flat(const Bisemigroup& alg,
                                  const WeightMatrix& boxed,
                                  const compile::CompiledBisemigroup& cb,
                                  FlatMatrix a) {
  const std::size_t n = a.n;
  const std::size_t stride = a.stride;
  std::atomic<std::uint64_t> product_steps{0};
  for (std::size_t k = 0; k < n; ++k) {
    const auto eliminate_rows = [&](std::size_t lo, std::size_t hi) {
      par::parallel_for(hi - lo, kRowGrain,
                        [&](std::size_t b, std::size_t e) {
        std::uint64_t local_steps = 0;
        // Reused per-thread scratch rows: this body runs once per chunk per
        // pivot k, so constructing the vectors here cost 2n mallocs per
        // closure per thread.
        thread_local std::vector<std::uint64_t> t1, t2;
        if (t1.size() < stride) t1.resize(stride);
        if (t2.size() < stride) t2.resize(stride);
        for (std::size_t i = lo + b; i < lo + e; ++i) {
          if (!a.has(i, k)) continue;
          local_steps += n;
          for (std::size_t j = 0; j < n; ++j) {
            relax_entry_flat(cb, a, i, k, j, t1.data(), t2.data());
          }
        }
        product_steps.fetch_add(local_steps, std::memory_order_relaxed);
      });
    };
    eliminate_rows(0, k);
    if (a.has(k, k)) {
      thread_local std::vector<std::uint64_t> t1, t2;
      if (t1.size() < stride) t1.resize(stride);
      if (t2.size() < stride) t2.resize(stride);
      product_steps.fetch_add(n, std::memory_order_relaxed);
      for (std::size_t j = 0; j < n; ++j) {
        relax_entry_flat(cb, a, k, k, j, t1.data(), t2.data());
      }
    }
    eliminate_rows(k + 1, n);
  }
  // Adjoin the empty walk (identity taken from the boxed algebra and
  // encoded; matches the boxed closure's diagonal exactly).
  if (auto one = alg.mul->identity()) {
    std::vector<std::uint64_t> idw(stride, 0), t(stride);
    if (cb.encode(*one, idw.data())) {
      for (std::size_t i = 0; i < n; ++i) {
        if (a.has(i, i)) {
          cb.add(a.at(i, i), idw.data(), t.data());
          a.set(i, i, t.data());
        } else {
          a.set(i, i, idw.data());
        }
      }
    } else {
      // Identity not representable: redo only the diagonal adjunction boxed.
      WeightMatrix m = decode_matrix(cb, a);
      for (std::size_t i = 0; i < n; ++i) {
        m[i][i] = opt_plus(alg, m[i][i], Entry(*one));
      }
      if (obs::enabled()) {
        obs::Registry& reg = obs::registry();
        reg.counter("closure.kleene_runs").add(1);
        reg.counter("closure.product_steps")
            .add(product_steps.load(std::memory_order_relaxed));
      }
      return ClosureResult{std::move(m), true, 0};
    }
  }
  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    reg.counter("closure.kleene_runs").add(1);
    reg.counter("closure.product_steps")
        .add(product_steps.load(std::memory_order_relaxed));
  }
  (void)boxed;
  return ClosureResult{decode_matrix(cb, a), true, 0};
}

ClosureResult iterative_closure_flat(const Bisemigroup& alg,
                                     const FlatMatrix& a,
                                     const compile::CompiledBisemigroup& cb,
                                     const std::uint64_t* idw, bool has_id,
                                     const ClosureOptions& opts) {
  const std::size_t n = a.n;
  const std::size_t stride = a.stride;
  ClosureResult out;
  out.converged = false;

  FlatMatrix star;
  star.init(n, stride);
  if (has_id) {
    for (std::size_t i = 0; i < n; ++i) star.set(i, i, idw);
  }

  std::atomic<std::uint64_t> product_steps{0};
  for (out.iterations = 0; out.iterations < opts.max_power;
       ++out.iterations) {
    FlatMatrix next;
    next.init(n, stride);
    if (has_id) {
      for (std::size_t i = 0; i < n; ++i) next.set(i, i, idw);
    }
    par::parallel_for(n, kRowGrain, [&](std::size_t rb, std::size_t re) {
      std::uint64_t local_steps = 0;
      // Reused per-thread scratch rows (see kleene_closure_flat): one body
      // run per chunk per power iteration.
      thread_local std::vector<std::uint64_t> t1, t2;
      if (t1.size() < stride) t1.resize(stride);
      if (t2.size() < stride) t2.resize(stride);
      for (std::size_t i = rb; i < re; ++i) {
        for (std::size_t k = 0; k < n; ++k) {
          if (!a.has(i, k)) continue;
          local_steps += n;
          for (std::size_t j = 0; j < n; ++j) {
            if (!star.has(k, j)) continue;
            cb.mul(a.at(i, k), star.at(k, j), t1.data());
            if (next.has(i, j)) {
              cb.add(next.at(i, j), t1.data(), t2.data());
              next.set(i, j, t2.data());
            } else {
              next.set(i, j, t1.data());
            }
          }
        }
      }
      product_steps.fetch_add(local_steps, std::memory_order_relaxed);
    });
    if (next == star) {
      out.converged = true;
      break;
    }
    star = std::move(next);
  }
  out.star = decode_matrix(cb, star);
  (void)alg;
  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    reg.counter("closure.iterative_runs").add(1);
    reg.counter("closure.product_steps")
        .add(product_steps.load(std::memory_order_relaxed));
    reg.counter("closure.iterations")
        .add(static_cast<std::uint64_t>(out.iterations));
    reg.histogram("closure.iterations_to_fixpoint")
        .record(static_cast<std::uint64_t>(out.iterations));
  }
  return out;
}

}  // namespace

WeightMatrix arc_matrix(const Bisemigroup& alg, const Digraph& g,
                        const ValueVec& arc_weights) {
  MRT_REQUIRE(static_cast<int>(arc_weights.size()) == g.num_arcs());
  const auto n = static_cast<std::size_t>(g.num_nodes());
  WeightMatrix a(n, std::vector<Entry>(n));
  for (int id = 0; id < g.num_arcs(); ++id) {
    const Arc& arc = g.arc(id);
    auto& cell = a[static_cast<std::size_t>(arc.src)]
                  [static_cast<std::size_t>(arc.dst)];
    cell = opt_plus(alg, cell, arc_weights[static_cast<std::size_t>(id)]);
  }
  return a;
}

ClosureResult kleene_closure(const Bisemigroup& alg, WeightMatrix a,
                             const compile::CompiledBisemigroup* cb) {
  const std::size_t n = a.size();
  for (const auto& row : a) MRT_REQUIRE(row.size() == n);

  if (cb != nullptr && cb->ok()) {
    FlatMatrix fa;
    if (encode_matrix(*cb, a, fa)) {
      return kleene_closure_flat(alg, a, *cb, std::move(fa));
    }
  }

  std::atomic<std::uint64_t> product_steps{0};
  // Elimination over intermediate nodes; for ⊕-idempotent, nondecreasing
  // algebras cycles never improve a walk, so a[k][k]* collapses away.
  for (std::size_t k = 0; k < n; ++k) {
    // Rows other than k only read row k and write their own row, so they
    // relax in parallel. Row k both reads and rewrites itself; running it
    // alone between the two halves reproduces the sequential update order
    // exactly (rows below k see the pre-update row k, rows above k the
    // post-update one).
    const auto eliminate_rows = [&](std::size_t lo, std::size_t hi) {
      par::parallel_for(hi - lo, kRowGrain,
                        [&](std::size_t b, std::size_t e) {
        std::uint64_t local_steps = 0;  // flushed once per chunk
        for (std::size_t i = lo + b; i < lo + e; ++i) {
          if (!a[i][k]) continue;
          local_steps += n;
          for (std::size_t j = 0; j < n; ++j) {
            a[i][j] = opt_plus(alg, a[i][j],
                               opt_times(alg, a[i][k], a[k][j]));
          }
        }
        product_steps.fetch_add(local_steps, std::memory_order_relaxed);
      });
    };
    eliminate_rows(0, k);
    if (a[k][k]) {
      std::uint64_t steps = n;
      for (std::size_t j = 0; j < n; ++j) {
        a[k][j] = opt_plus(alg, a[k][j],
                           opt_times(alg, a[k][k], a[k][j]));
      }
      product_steps.fetch_add(steps, std::memory_order_relaxed);
    }
    eliminate_rows(k + 1, n);
  }
  // Adjoin the empty walk.
  if (auto one = alg.mul->identity()) {
    for (std::size_t i = 0; i < n; ++i) {
      a[i][i] = opt_plus(alg, a[i][i], Entry(*one));
    }
  }
  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    reg.counter("closure.kleene_runs").add(1);
    reg.counter("closure.product_steps")
        .add(product_steps.load(std::memory_order_relaxed));
  }
  return ClosureResult{std::move(a), true, 0};
}

ClosureResult iterative_closure(const Bisemigroup& alg, const WeightMatrix& a,
                                const ClosureOptions& opts,
                                const compile::CompiledBisemigroup* cb) {
  const std::size_t n = a.size();
  for (const auto& row : a) MRT_REQUIRE(row.size() == n);

  if (cb != nullptr && cb->ok()) {
    FlatMatrix fa;
    if (encode_matrix(*cb, a, fa)) {
      auto one = alg.mul->identity();
      std::vector<std::uint64_t> idw(fa.stride, 0);
      bool id_ok = !one.has_value();
      if (one) id_ok = cb->encode(*one, idw.data());
      if (id_ok) {
        return iterative_closure_flat(alg, fa, *cb, idw.data(),
                                      one.has_value(), opts);
      }
    }
  }

  ClosureResult out;
  out.star = identity_matrix(alg, n);
  out.converged = false;

  std::atomic<std::uint64_t> product_steps{0};
  for (out.iterations = 0; out.iterations < opts.max_power;
       ++out.iterations) {
    // next = I ⊕ A ⊗ star. Each output row depends only on `a` and the
    // previous `star`, so rows multiply in parallel.
    WeightMatrix next = identity_matrix(alg, n);
    par::parallel_for(n, kRowGrain, [&](std::size_t rb, std::size_t re) {
      std::uint64_t local_steps = 0;  // flushed once per chunk
      for (std::size_t i = rb; i < re; ++i) {
        for (std::size_t k = 0; k < n; ++k) {
          if (!a[i][k]) continue;
          local_steps += n;
          for (std::size_t j = 0; j < n; ++j) {
            next[i][j] = opt_plus(alg, next[i][j],
                                  opt_times(alg, a[i][k], out.star[k][j]));
          }
        }
      }
      product_steps.fetch_add(local_steps, std::memory_order_relaxed);
    });
    if (next == out.star) {
      out.converged = true;
      break;
    }
    out.star = std::move(next);
  }
  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    reg.counter("closure.iterative_runs").add(1);
    reg.counter("closure.product_steps")
        .add(product_steps.load(std::memory_order_relaxed));
    reg.counter("closure.iterations")
        .add(static_cast<std::uint64_t>(out.iterations));
    reg.histogram("closure.iterations_to_fixpoint")
        .record(static_cast<std::uint64_t>(out.iterations));
  }
  return out;
}

}  // namespace mrt
