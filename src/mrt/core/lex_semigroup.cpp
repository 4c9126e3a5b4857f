#include <utility>

#include "mrt/core/lex.hpp"
#include "mrt/support/require.hpp"

namespace mrt {
namespace {

class LexSemigroup : public Semigroup {
 public:
  LexSemigroup(SemigroupPtr s, SemigroupPtr t)
      : s_(std::move(s)), t_(std::move(t)) {
    MRT_REQUIRE(s_ != nullptr && t_ != nullptr);
  }

  std::string name() const override {
    return "lex(" + s_->name() + ", " + t_->name() + ")";
  }

  bool contains(const Value& v) const override {
    return v.is_tuple() && v.as_tuple().size() == 2 &&
           s_->contains(v.first()) && t_->contains(v.second());
  }

  Value op(const Value& a, const Value& b) const override {
    const Value s = s_->op(a.first(), b.first());
    const bool is_a = s == a.first();
    const bool is_b = s == b.first();
    if (is_a && is_b) return Value::pair(s, t_->op(a.second(), b.second()));
    if (is_a) return Value::pair(s, a.second());
    if (is_b) return Value::pair(s, b.second());
    // Fourth case: s1 ⊕ s2 is a third element; the T component must be the
    // identity α_T (Theorem 2's definedness condition).
    auto alpha = t_->identity();
    if (!alpha) {
      throw std::logic_error(
          "lex product undefined at (" + a.to_string() + ", " + b.to_string() +
          "): first factor is not selective here and second factor (" +
          t_->name() + ") has no identity");
    }
    return Value::pair(s, *alpha);
  }

  std::optional<Value> identity() const override {
    auto is = s_->identity();
    auto it = t_->identity();
    if (is && it) return Value::pair(*is, *it);
    return std::nullopt;
  }

  std::optional<Value> absorber() const override {
    auto ws = s_->absorber();
    auto wt = t_->absorber();
    if (ws && wt) return Value::pair(*ws, *wt);
    return std::nullopt;
  }

  std::optional<ValueVec> enumerate() const override {
    auto es = s_->enumerate();
    auto et = t_->enumerate();
    if (!es || !et) return std::nullopt;
    ValueVec out;
    out.reserve(es->size() * et->size());
    for (const Value& x : *es) {
      for (const Value& y : *et) out.push_back(Value::pair(x, y));
    }
    return out;
  }

  ValueVec sample(Rng& rng, int n) const override {
    ValueVec xs = s_->sample(rng, n);
    ValueVec ys = t_->sample(rng, n);
    ValueVec out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      out.push_back(Value::pair(xs[static_cast<std::size_t>(i)],
                                ys[static_cast<std::size_t>(i)]));
    }
    return out;
  }

 protected:
  SemigroupPtr s_, t_;
};

class DirectSemigroup : public Semigroup {
 public:
  DirectSemigroup(SemigroupPtr s, SemigroupPtr t)
      : s_(std::move(s)), t_(std::move(t)) {
    MRT_REQUIRE(s_ != nullptr && t_ != nullptr);
  }

  std::string name() const override {
    return "prod(" + s_->name() + ", " + t_->name() + ")";
  }
  bool contains(const Value& v) const override {
    return v.is_tuple() && v.as_tuple().size() == 2 &&
           s_->contains(v.first()) && t_->contains(v.second());
  }
  Value op(const Value& a, const Value& b) const override {
    return Value::pair(s_->op(a.first(), b.first()),
                       t_->op(a.second(), b.second()));
  }
  std::optional<Value> identity() const override {
    auto is = s_->identity();
    auto it = t_->identity();
    if (is && it) return Value::pair(*is, *it);
    return std::nullopt;
  }
  std::optional<Value> absorber() const override {
    auto ws = s_->absorber();
    auto wt = t_->absorber();
    if (ws && wt) return Value::pair(*ws, *wt);
    return std::nullopt;
  }
  std::optional<ValueVec> enumerate() const override {
    auto es = s_->enumerate();
    auto et = t_->enumerate();
    if (!es || !et) return std::nullopt;
    ValueVec out;
    out.reserve(es->size() * et->size());
    for (const Value& x : *es) {
      for (const Value& y : *et) out.push_back(Value::pair(x, y));
    }
    return out;
  }
  ValueVec sample(Rng& rng, int n) const override {
    ValueVec xs = s_->sample(rng, n);
    ValueVec ys = t_->sample(rng, n);
    ValueVec out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      out.push_back(Value::pair(xs[static_cast<std::size_t>(i)],
                                ys[static_cast<std::size_t>(i)]));
    }
    return out;
  }

 private:
  SemigroupPtr s_, t_;
};

// Szendrei's absorber-collapsing lexicographic product (paper section VI).
class LexOmegaSemigroup : public Semigroup {
 public:
  LexOmegaSemigroup(SemigroupPtr s, SemigroupPtr t)
      : s_(std::move(s)), t_(std::move(t)) {
    MRT_REQUIRE(s_ != nullptr && t_ != nullptr);
    auto w = s_->absorber();
    MRT_REQUIRE(w.has_value());  // ⃗×_ω needs ω_S to collapse onto
    omega_s_ = *w;
    lex_ = std::make_shared<LexSemigroup>(s_, t_);
  }

  std::string name() const override {
    return "lex_omega(" + s_->name() + ", " + t_->name() + ")";
  }

  bool contains(const Value& v) const override {
    if (v.is_omega()) return true;
    return v.is_tuple() && v.as_tuple().size() == 2 &&
           s_->contains(v.first()) && v.first() != omega_s_ &&
           t_->contains(v.second());
  }

  Value op(const Value& a, const Value& b) const override {
    if (a.is_omega() || b.is_omega()) return Value::omega();
    const Value s = s_->op(a.first(), b.first());
    if (s == omega_s_) return Value::omega();
    return lex_->op(a, b);
  }

  std::optional<Value> identity() const override {
    auto is = s_->identity();
    auto it = t_->identity();
    if (is && it && *is != omega_s_) return Value::pair(*is, *it);
    return std::nullopt;
  }

  std::optional<Value> absorber() const override { return Value::omega(); }

  std::optional<ValueVec> enumerate() const override {
    auto es = s_->enumerate();
    auto et = t_->enumerate();
    if (!es || !et) return std::nullopt;
    ValueVec out;
    out.push_back(Value::omega());
    for (const Value& x : *es) {
      if (x == omega_s_) continue;
      for (const Value& y : *et) out.push_back(Value::pair(x, y));
    }
    return out;
  }

  ValueVec sample(Rng& rng, int n) const override {
    ValueVec xs = s_->sample(rng, n);
    ValueVec ys = t_->sample(rng, n);
    ValueVec out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const Value& x = xs[static_cast<std::size_t>(i)];
      if (x == omega_s_) {
        out.push_back(Value::omega());
      } else {
        out.push_back(Value::pair(x, ys[static_cast<std::size_t>(i)]));
      }
    }
    return out;
  }

 private:
  SemigroupPtr s_, t_;
  Value omega_s_;
  SemigroupPtr lex_;
};

}  // namespace

SemigroupPtr lex_semigroup(SemigroupPtr s, SemigroupPtr t) {
  return std::make_shared<LexSemigroup>(std::move(s), std::move(t));
}

SemigroupPtr direct_semigroup(SemigroupPtr s, SemigroupPtr t) {
  return std::make_shared<DirectSemigroup>(std::move(s), std::move(t));
}

SemigroupPtr lex_omega_semigroup(SemigroupPtr s, SemigroupPtr t) {
  return std::make_shared<LexOmegaSemigroup>(std::move(s), std::move(t));
}

}  // namespace mrt
