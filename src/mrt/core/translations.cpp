#include "mrt/core/translations.hpp"

#include <utility>

#include "mrt/core/preorder_set.hpp"
#include "mrt/support/require.hpp"

namespace mrt {
namespace {

// F = { λy. x ⊗ y | x ∈ S }, labels drawn from the carrier itself.
class CayleyFamily : public FunctionFamily {
 public:
  explicit CayleyFamily(SemigroupPtr mul) : mul_(std::move(mul)) {
    MRT_REQUIRE(mul_ != nullptr);
  }
  std::string name() const override {
    return "{" + mul_->name() + "(x, .) | x}";
  }
  Value apply(const Value& label, const Value& a) const override {
    return mul_->op(label, a);
  }
  bool contains(const Value& label) const override {
    return mul_->contains(label);
  }
  std::optional<ValueVec> labels() const override { return mul_->enumerate(); }
  ValueVec sample_labels(Rng& rng, int n) const override {
    return mul_->sample(rng, n);
  }

 private:
  SemigroupPtr mul_;
};

// Copies the property slots whose statements are literally identical across
// the translation (left multiplications ⇔ quantification over x).
void copy_props(PropertyReport& dst, const PropertyReport& src,
                std::initializer_list<Prop> props, const char* why) {
  for (Prop p : props) {
    if (src.value(p) != Tri::Unknown) {
      dst.set(p, src.value(p), std::string(why) + ": " + src.get(p).why);
    }
  }
}

class NaturalOrderPreorder : public PreorderSet {
 public:
  NaturalOrderPreorder(SemigroupPtr s, bool left)
      : s_(std::move(s)), left_(left) {
    MRT_REQUIRE(s_ != nullptr);
  }

  std::string name() const override {
    return std::string(left_ ? "NO_L(" : "NO_R(") + s_->name() + ")";
  }
  bool contains(const Value& v) const override { return s_->contains(v); }
  bool leq(const Value& a, const Value& b) const override {
    return left_ ? a == s_->op(a, b) : b == s_->op(a, b);
  }
  bool is_top(const Value& v) const override {
    // For ≲L the unique top (if any) is the ⊕-identity; for ≲R the absorber.
    if (auto t = left_ ? s_->identity() : s_->absorber()) return v == *t;
    auto enumd = s_->enumerate();
    if (enumd) return PreorderSet::is_top(v);
    return false;  // infinite carrier, no declared witness: claim none
  }
  bool has_top() const override {
    if ((left_ ? s_->identity() : s_->absorber()).has_value()) return true;
    auto enumd = s_->enumerate();
    if (enumd) return PreorderSet::has_top();
    return false;
  }
  std::optional<ValueVec> enumerate() const override {
    return s_->enumerate();
  }
  ValueVec sample(Rng& rng, int n) const override {
    return s_->sample(rng, n);
  }

 private:
  SemigroupPtr s_;
  bool left_;
};

// ---------------------------------------------------------------------------
// Min-set machinery. Min-sets are represented as canonically sorted tuples.
// ---------------------------------------------------------------------------

ValueVec tuple_to_set(const Value& v) { return v.as_tuple(); }

Value set_to_tuple(ValueVec xs) { return Value::tuple(normalize_set(std::move(xs))); }

class MinSetSemigroup : public Semigroup {
 public:
  explicit MinSetSemigroup(PreorderPtr ord) : ord_(std::move(ord)) {
    MRT_REQUIRE(ord_ != nullptr);
  }

  std::string name() const override { return "minsets(" + ord_->name() + ")"; }

  bool contains(const Value& v) const override {
    if (!v.is_tuple()) return false;
    const ValueVec& xs = v.as_tuple();
    for (const Value& x : xs) {
      if (!ord_->contains(x)) return false;
    }
    return min_set(*ord_, xs) == normalize_set(xs);
  }

  Value op(const Value& a, const Value& b) const override {
    ValueVec xs = tuple_to_set(a);
    const ValueVec& ys = tuple_to_set(b);
    xs.insert(xs.end(), ys.begin(), ys.end());
    return set_to_tuple(min_set(*ord_, xs));
  }

  std::optional<Value> identity() const override {
    return Value::tuple({});  // min(∅ ∪ B) = B
  }

  std::optional<ValueVec> enumerate() const override {
    auto enumd = ord_->enumerate();
    if (!enumd || enumd->size() > 10) return std::nullopt;
    // All min-closed subsets of the carrier.
    const std::size_t n = enumd->size();
    ValueVec out;
    for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
      ValueVec sub;
      for (std::size_t i = 0; i < n; ++i) {
        if (mask & (std::size_t{1} << i)) sub.push_back((*enumd)[i]);
      }
      ValueVec norm = normalize_set(sub);
      if (min_set(*ord_, norm) == norm) out.push_back(Value::tuple(norm));
    }
    return out;
  }

  ValueVec sample(Rng& rng, int n) const override {
    ValueVec out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const int k = static_cast<int>(rng.range(0, 3));
      ValueVec xs = ord_->sample(rng, k + 1);
      if (rng.chance(0.1)) xs.clear();
      out.push_back(set_to_tuple(min_set(*ord_, xs)));
    }
    return out;
  }

 private:
  PreorderPtr ord_;
};

class MinSetFamily : public FunctionFamily {
 public:
  MinSetFamily(PreorderPtr ord, FnFamilyPtr fns)
      : ord_(std::move(ord)), fns_(std::move(fns)) {}

  std::string name() const override { return "minset-" + fns_->name(); }

  Value apply(const Value& label, const Value& a) const override {
    ValueVec out;
    for (const Value& x : tuple_to_set(a)) {
      out.push_back(fns_->apply(label, x));
    }
    return set_to_tuple(min_set(*ord_, out));
  }

  bool contains(const Value& label) const override {
    return fns_->contains(label);
  }
  std::optional<ValueVec> labels() const override { return fns_->labels(); }
  ValueVec sample_labels(Rng& rng, int n) const override {
    return fns_->sample_labels(rng, n);
  }

 private:
  PreorderPtr ord_;
  FnFamilyPtr fns_;
};

}  // namespace

SemigroupTransform cayley(const Bisemigroup& a) {
  SemigroupTransform out{"cayley(" + a.name + ")", a.add,
                         std::make_shared<CayleyFamily>(a.mul), {}};
  copy_props(out.props, a.props,
             {Prop::Assoc, Prop::Comm, Prop::Idem, Prop::Selective,
              Prop::HasIdentity, Prop::HasAbsorber},
             "carried by Cayley");
  // Left structure properties transfer verbatim: quantifying over f = x ⊗ ·
  // is quantifying over x.
  copy_props(out.props, a.props,
             {Prop::M_L, Prop::N_L, Prop::C_L, Prop::ND_L, Prop::Inc_L,
              Prop::SInc_L},
             "carried by Cayley");
  return out;
}

OrderTransform cayley(const OrderSemigroup& a) {
  OrderTransform out{"cayley(" + a.name + ")", a.ord,
                     std::make_shared<CayleyFamily>(a.mul), {}};
  copy_props(out.props, a.props,
             {Prop::Total, Prop::Antisym, Prop::HasTop, Prop::HasBottom},
             "order unchanged");
  copy_props(out.props, a.props,
             {Prop::M_L, Prop::N_L, Prop::C_L, Prop::ND_L, Prop::Inc_L,
              Prop::SInc_L, Prop::TFix_L},
             "carried by Cayley");
  return out;
}

PreorderPtr natural_order(SemigroupPtr s, bool left_order) {
  return std::make_shared<NaturalOrderPreorder>(std::move(s), left_order);
}

OrderSemigroup natural_order_left(const Bisemigroup& a) {
  return OrderSemigroup{"NO_L(" + a.name + ")", natural_order(a.add, true),
                        a.mul, {}};
}

OrderSemigroup natural_order_right(const Bisemigroup& a) {
  return OrderSemigroup{"NO_R(" + a.name + ")", natural_order(a.add, false),
                        a.mul, {}};
}

OrderTransform natural_order_left(const SemigroupTransform& a) {
  return OrderTransform{"NO_L(" + a.name + ")", natural_order(a.add, true),
                        a.fns, {}};
}

OrderTransform natural_order_right(const SemigroupTransform& a) {
  return OrderTransform{"NO_R(" + a.name + ")", natural_order(a.add, false),
                        a.fns, {}};
}

SemigroupPtr min_set_semigroup(PreorderPtr ord) {
  return std::make_shared<MinSetSemigroup>(std::move(ord));
}

SemigroupTransform min_set_transform(const OrderTransform& a) {
  SemigroupTransform out{"minset(" + a.name + ")", min_set_semigroup(a.ord),
                         std::make_shared<MinSetFamily>(a.ord, a.fns), {}};
  out.props.set(Prop::Assoc, Tri::True, "min-set-map is a reduction");
  out.props.set(Prop::Comm, Tri::True, "union is commutative");
  out.props.set(Prop::Idem, Tri::True, "min(A u A) = A");
  out.props.set(Prop::HasIdentity, Tri::True, "the empty set");
  return out;
}

}  // namespace mrt
