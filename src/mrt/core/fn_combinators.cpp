#include <utility>

#include "mrt/core/lex.hpp"
#include "mrt/support/require.hpp"

namespace mrt {
namespace {

class PairFamily : public FunctionFamily {
 public:
  PairFamily(FnFamilyPtr f, FnFamilyPtr g)
      : f_(std::move(f)), g_(std::move(g)) {
    MRT_REQUIRE(f_ != nullptr && g_ != nullptr);
  }

  std::string name() const override {
    return "pair(" + f_->name() + ", " + g_->name() + ")";
  }

  Value apply(const Value& label, const Value& a) const override {
    return Value::pair(f_->apply(label.first(), a.first()),
                       g_->apply(label.second(), a.second()));
  }

  bool contains(const Value& label) const override {
    return label.is_tuple() && label.as_tuple().size() == 2 &&
           f_->contains(label.first()) && g_->contains(label.second());
  }

  std::optional<ValueVec> labels() const override {
    auto lf = f_->labels();
    auto lg = g_->labels();
    if (!lf || !lg) return std::nullopt;
    ValueVec out;
    out.reserve(lf->size() * lg->size());
    for (const Value& x : *lf) {
      for (const Value& y : *lg) out.push_back(Value::pair(x, y));
    }
    return out;
  }

  ValueVec sample_labels(Rng& rng, int n) const override {
    ValueVec xs = f_->sample_labels(rng, n);
    ValueVec ys = g_->sample_labels(rng, n);
    ValueVec out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      out.push_back(Value::pair(xs[static_cast<std::size_t>(i)],
                                ys[static_cast<std::size_t>(i)]));
    }
    return out;
  }

  FamilyDesc describe() const override {
    FamilyDesc d;
    d.k = FamilyDesc::K::Pair;
    d.kids = {f_->describe(), g_->describe()};
    return d;
  }

 private:
  FnFamilyPtr f_, g_;
};

class UnionFamily : public FunctionFamily {
 public:
  UnionFamily(FnFamilyPtr f, FnFamilyPtr g)
      : f_(std::move(f)), g_(std::move(g)) {
    MRT_REQUIRE(f_ != nullptr && g_ != nullptr);
  }

  std::string name() const override {
    return "union(" + f_->name() + ", " + g_->name() + ")";
  }

  Value apply(const Value& label, const Value& a) const override {
    // Tags exist only to keep the two sides disjoint; application ignores
    // them (paper section II).
    MRT_REQUIRE(label.is_tagged());
    if (label.tag() == 1) return f_->apply(label.untagged(), a);
    MRT_REQUIRE(label.tag() == 2);
    return g_->apply(label.untagged(), a);
  }

  bool contains(const Value& label) const override {
    if (!label.is_tagged()) return false;
    if (label.tag() == 1) return f_->contains(label.untagged());
    return label.tag() == 2 && g_->contains(label.untagged());
  }

  std::optional<ValueVec> labels() const override {
    auto lf = f_->labels();
    auto lg = g_->labels();
    if (!lf || !lg) return std::nullopt;
    ValueVec out;
    out.reserve(lf->size() + lg->size());
    for (const Value& x : *lf) out.push_back(Value::tagged(1, x));
    for (const Value& y : *lg) out.push_back(Value::tagged(2, y));
    return out;
  }

  ValueVec sample_labels(Rng& rng, int n) const override {
    ValueVec out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      if (rng.chance(0.5)) {
        out.push_back(Value::tagged(1, f_->sample_labels(rng, 1)[0]));
      } else {
        out.push_back(Value::tagged(2, g_->sample_labels(rng, 1)[0]));
      }
    }
    return out;
  }

  FamilyDesc describe() const override {
    FamilyDesc d;
    d.k = FamilyDesc::K::Union;
    d.kids = {f_->describe(), g_->describe()};
    return d;
  }

 private:
  FnFamilyPtr f_, g_;
};

// Constant functions onto a preorder's carrier, with labels drawn from the
// order itself so that it works on infinite carriers too.
class ConstOfOrderFamily : public FunctionFamily {
 public:
  explicit ConstOfOrderFamily(PreorderPtr ord) : ord_(std::move(ord)) {
    MRT_REQUIRE(ord_ != nullptr);
  }

  std::string name() const override {
    return "{const b | b in " + ord_->name() + "}";
  }

  Value apply(const Value& label, const Value&) const override {
    return label;
  }

  bool contains(const Value& label) const override {
    return ord_->contains(label);
  }

  std::optional<ValueVec> labels() const override {
    return ord_->enumerate();
  }

  ValueVec sample_labels(Rng& rng, int n) const override {
    return ord_->sample(rng, n);
  }

  FamilyDesc describe() const override {
    FamilyDesc d;
    d.k = FamilyDesc::K::Const;
    return d;
  }

 private:
  PreorderPtr ord_;
};

}  // namespace

FnFamilyPtr fam_pair(FnFamilyPtr f, FnFamilyPtr g) {
  return std::make_shared<PairFamily>(std::move(f), std::move(g));
}

FnFamilyPtr fam_union(FnFamilyPtr f, FnFamilyPtr g) {
  return std::make_shared<UnionFamily>(std::move(f), std::move(g));
}

FnFamilyPtr fam_const_of_order(PreorderPtr ord) {
  return std::make_shared<ConstOfOrderFamily>(std::move(ord));
}

}  // namespace mrt
