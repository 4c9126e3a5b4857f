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

ClosureResult kleene_closure(const Bisemigroup& alg, WeightMatrix a) {
  const std::size_t n = a.size();
  for (const auto& row : a) MRT_REQUIRE(row.size() == n);

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
                                const ClosureOptions& opts) {
  const std::size_t n = a.size();
  for (const auto& row : a) MRT_REQUIRE(row.size() == n);

  // Each round computes next = base ⊕ A ⊗ star. With a ⊗-identity, base = I
  // and star starts at I, so round r holds I ⊕ A ⊕ … ⊕ A^r. Without one,
  // I is all absent and would keep star empty forever; base = A from
  // star = ∅ instead gives A ⊕ … ⊕ A^r, i.e. A⁺ at the fixpoint.
  const WeightMatrix base =
      alg.mul->identity() ? identity_matrix(alg, n) : a;
  ClosureResult out;
  out.star = identity_matrix(alg, n);
  out.converged = false;

  std::atomic<std::uint64_t> product_steps{0};
  for (out.iterations = 0; out.iterations < opts.max_power;
       ++out.iterations) {
    // Each output row depends only on `a` and the previous `star`, so rows
    // multiply in parallel.
    WeightMatrix next = base;
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
