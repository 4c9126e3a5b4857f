// The static (compile-time) algebra layer.
//
// The dynamic layer in mrt/core is what the metalanguage elaborates into:
// algebras are runtime values and property inference happens at construction.
// This header is the same theory pushed to compile time: algebras are types,
// the combinators are class templates, and the exact property rules of
// Theorems 4–6 are `constexpr` booleans — so a routing algorithm can
// `static_assert` its own correctness conditions and the whole weight
// pipeline inlines to straight-line code (see bench/perf_routing's
// BM_StaticDijkstra against BM_DynamicDijkstraSameAlgebra).
//
// A static order transform is a type providing:
//   value_type, label_type
//   static bool leq(value, value)
//   static value_type apply(label, value)
//   static bool is_top(value)
// plus the property tags (all constexpr bool):
//   kTotal, kHasTop, kOneClass,            — order shape
//   kM, kN, kC,                            — Fig. 2 (global optima)
//   kNd, kInc, kSInc, kTFix                — Fig. 3 (+ refinements)
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <utility>
#include <variant>

namespace mrt::alg {

template <typename A>
concept StaticOrderTransform = requires(const typename A::value_type& v,
                                        const typename A::label_type& l) {
  { A::leq(v, v) } -> std::convertible_to<bool>;
  { A::apply(l, v) } -> std::convertible_to<typename A::value_type>;
  { A::is_top(v) } -> std::convertible_to<bool>;
  { A::kTotal } -> std::convertible_to<bool>;
  { A::kHasTop } -> std::convertible_to<bool>;
  { A::kOneClass } -> std::convertible_to<bool>;
  { A::kM } -> std::convertible_to<bool>;
  { A::kN } -> std::convertible_to<bool>;
  { A::kC } -> std::convertible_to<bool>;
  { A::kNd } -> std::convertible_to<bool>;
  { A::kInc } -> std::convertible_to<bool>;
  { A::kSInc } -> std::convertible_to<bool>;
  { A::kTFix } -> std::convertible_to<bool>;
};

/// Derived comparison helpers shared by all static algebras.
template <StaticOrderTransform A>
constexpr bool lt(const typename A::value_type& a,
                  const typename A::value_type& b) {
  return A::leq(a, b) && !A::leq(b, a);
}

template <StaticOrderTransform A>
constexpr bool equiv(const typename A::value_type& a,
                     const typename A::value_type& b) {
  return A::leq(a, b) && A::leq(b, a);
}

// ---------------------------------------------------------------------------
// Base algebras
// ---------------------------------------------------------------------------

/// (ℕ∪{∞}, ≤, {+c | c ≥ 1}): shortest paths; ⊤ = ∞ (sentinel).
struct ShortestPath {
  using value_type = std::uint32_t;
  using label_type = std::uint32_t;
  static constexpr value_type kInf = std::numeric_limits<value_type>::max();

  static constexpr bool leq(value_type a, value_type b) { return a <= b; }
  static constexpr value_type apply(label_type c, value_type v) {
    return v >= kInf - c ? kInf : v + c;
  }
  static constexpr bool is_top(value_type v) { return v == kInf; }

  static constexpr bool kTotal = true, kHasTop = true, kOneClass = false;
  static constexpr bool kM = true;   // a<=b => a+c <= b+c
  static constexpr bool kN = true;   // +c injective below saturation window
  static constexpr bool kC = false;
  static constexpr bool kNd = true;  // a <= a+c, c >= 1
  static constexpr bool kInc = true; // strict below ∞ (labels >= 1)
  static constexpr bool kSInc = false;  // ∞ is fixed
  static constexpr bool kTFix = true;
};

/// (ℕ∪{∞}, ≥, {min(·,c)}): widest paths; ⊤ = 0 (zero capacity).
struct WidestPath {
  using value_type = std::uint32_t;
  using label_type = std::uint32_t;
  static constexpr value_type kUnlimited =
      std::numeric_limits<value_type>::max();

  static constexpr bool leq(value_type a, value_type b) { return a >= b; }
  static constexpr value_type apply(label_type c, value_type v) {
    return v < c ? v : c;
  }
  static constexpr bool is_top(value_type v) { return v == 0; }

  static constexpr bool kTotal = true, kHasTop = true, kOneClass = false;
  static constexpr bool kM = true;
  static constexpr bool kN = false;  // min(c,a) = min(c,b) with a != b
  static constexpr bool kC = false;
  static constexpr bool kNd = true;
  static constexpr bool kInc = false;  // min(a, unlimited) = a
  static constexpr bool kSInc = false;
  static constexpr bool kTFix = true;  // min(0, c) = 0
};

/// Hop count: shortest path whose only label is +1.
struct HopCount : ShortestPath {
  struct Unit {};
  using label_type = Unit;
  static constexpr value_type apply(Unit, value_type v) {
    return ShortestPath::apply(1, v);
  }
  using ShortestPath::is_top;
  using ShortestPath::leq;
};

/// Link reliability ([0,1], ≥, {·c | 0 < c < 1}); ⊤ = 0.
struct Reliability {
  using value_type = double;
  using label_type = double;

  static constexpr bool leq(value_type a, value_type b) { return a >= b; }
  static constexpr value_type apply(label_type c, value_type v) {
    return c * v;
  }
  static constexpr bool is_top(value_type v) { return v == 0.0; }

  static constexpr bool kTotal = true, kHasTop = true, kOneClass = false;
  static constexpr bool kM = true;
  static constexpr bool kN = true;  // c > 0
  static constexpr bool kC = false;
  static constexpr bool kNd = true;   // c <= 1
  static constexpr bool kInc = true;  // c < 1, strict below 0
  static constexpr bool kSInc = false;
  static constexpr bool kTFix = true;
};

// ---------------------------------------------------------------------------
// Combinators: properties derived by the exact rules, at compile time
// ---------------------------------------------------------------------------

/// Lexicographic product S ⃗× T with the Theorem 4 / refined Theorem 5 rules
/// evaluated as constant expressions.
template <StaticOrderTransform S, StaticOrderTransform T>
struct Lex {
  using value_type = std::pair<typename S::value_type, typename T::value_type>;
  using label_type = std::pair<typename S::label_type, typename T::label_type>;

  static constexpr bool leq(const value_type& a, const value_type& b) {
    if (lt<S>(a.first, b.first)) return true;
    if (!equiv<S>(a.first, b.first)) return false;
    return T::leq(a.second, b.second);
  }
  static constexpr value_type apply(const label_type& l, const value_type& v) {
    return {S::apply(l.first, v.first), T::apply(l.second, v.second)};
  }
  static constexpr bool is_top(const value_type& v) {
    return S::is_top(v.first) && T::is_top(v.second);
  }

  static constexpr bool kTotal = S::kTotal && T::kTotal;
  static constexpr bool kHasTop = S::kHasTop && T::kHasTop;
  static constexpr bool kOneClass = S::kOneClass && T::kOneClass;
  // Theorem 4 (exact).
  static constexpr bool kM = S::kM && T::kM && (S::kN || T::kC);
  static constexpr bool kN = S::kN && T::kN;
  static constexpr bool kC = S::kC && T::kC;
  // Refined Theorem 5 (exact; DESIGN.md §1.1).
  static constexpr bool kSInc = S::kSInc || (S::kNd && T::kSInc);
  static constexpr bool kNd = S::kSInc || (S::kNd && T::kNd);
  static constexpr bool kInc =
      (S::kInc && (!S::kHasTop || T::kOneClass || (S::kTFix && T::kInc))) ||
      (S::kNd && T::kSInc);
  static constexpr bool kTFix =
      !(S::kHasTop && T::kHasTop) || (S::kTFix && T::kTFix);
};

/// Scoped product S ⊙ T (BGP-like regions). Labels are a variant:
/// inter-region arcs carry (f ∈ S, fresh t ∈ T); intra-region arcs carry
/// g ∈ T. Properties follow Theorem 6 via the same composition the dynamic
/// engine performs (lex/left/right/union), folded into closed form.
template <StaticOrderTransform S, StaticOrderTransform T>
struct Scoped {
  using value_type = std::pair<typename S::value_type, typename T::value_type>;
  struct Inter {
    typename S::label_type f;
    typename T::value_type originate;
  };
  struct Intra {
    typename T::label_type g;
  };
  using label_type = std::variant<Inter, Intra>;

  static constexpr bool leq(const value_type& a, const value_type& b) {
    return Lex<S, T>::leq(a, b);
  }
  static constexpr value_type apply(const label_type& l, const value_type& v) {
    if (const Inter* i = std::get_if<Inter>(&l)) {
      return {S::apply(i->f, v.first), i->originate};
    }
    const Intra& g = std::get<Intra>(l);
    return {v.first, T::apply(g.g, v.second)};
  }
  static constexpr bool is_top(const value_type& v) {
    return Lex<S, T>::is_top(v);
  }

  static constexpr bool kTotal = S::kTotal && T::kTotal;
  static constexpr bool kHasTop = S::kHasTop && T::kHasTop;
  static constexpr bool kOneClass = S::kOneClass && T::kOneClass;
  // Theorem 6: no side condition.
  static constexpr bool kM = S::kM && T::kM;
  // N(⊙) needs N of both arms; N(arm1) requires T to have no strictly
  // ordered pair, for which OneClass is a sound (conservative) witness.
  static constexpr bool kN = S::kN && T::kN && T::kOneClass;
  // C(⊙) needs C of the identity arm: only a one-class S could give it.
  static constexpr bool kC = S::kOneClass && T::kC;
  // Local optima via the two arms (⊤-aware; reduces to Thm 6's
  // ND ⟺ I(S) ∧ ND(T) for ⊤-free S):
  //   ND(arm1 = S ⃗× left(T)) = SI(S) ∨ (ND(S) ∧ OneClass(T))
  //   ND(arm2 = right(S) ⃗× T) = ND(T)
  static constexpr bool kSInc = false;  // κ_b(b) = b is never strict
  static constexpr bool kNd = (S::kSInc || (S::kNd && T::kOneClass)) && T::kNd;
  //   I(arm1) = I(S) ∧ (⊤-free(S) ∨ OneClass(T))    [I(left(T)) = OneClass(T)]
  //   I(arm2) = (OneClass(S) ∧ …) ∨ SI(T); SI(T) needs a ⊤-free T.
  static constexpr bool kInc =
      (S::kInc && (!S::kHasTop || T::kOneClass)) &&
      (S::kOneClass || T::kSInc);
  static constexpr bool kTFix =
      !(S::kHasTop && T::kHasTop) || (S::kTFix && T::kTFix && T::kOneClass);
};

/// A generic label-indexed value for the examples: smallest-of-two chooser.
template <StaticOrderTransform A>
constexpr typename A::value_type pick_best(const typename A::value_type& a,
                                           const typename A::value_type& b) {
  return A::leq(a, b) ? a : b;
}

}  // namespace mrt::alg
