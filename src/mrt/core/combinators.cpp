#include "mrt/core/combinators.hpp"

#include <utility>

#include "mrt/core/bases.hpp"
#include "mrt/core/inference.hpp"
#include "mrt/core/lex.hpp"
#include "mrt/support/require.hpp"

namespace mrt {
namespace {

std::string lex_name(const std::string& s, const std::string& t) {
  return "lex(" + s + ", " + t + ")";
}

// --- Szendrei product carrier pieces for order transforms -----------------

// Order: ((S ∖ Top(S)) × T) ∪ {ω}, pairs lexicographic, ω the unique top.
class LexOmegaPreorder : public PreorderSet {
 public:
  LexOmegaPreorder(PreorderPtr s, PreorderPtr t)
      : s_(std::move(s)), t_(std::move(t)), lex_(lex_preorder(s_, t_)) {
    MRT_REQUIRE(s_->has_top());
  }

  std::string name() const override {
    return "lex_omega(" + s_->name() + ", " + t_->name() + ")";
  }
  bool contains(const Value& v) const override {
    if (v.is_omega()) return true;
    return lex_->contains(v) && !s_->is_top(v.first());
  }
  bool leq(const Value& a, const Value& b) const override {
    if (b.is_omega()) return true;   // ω is least preferred
    if (a.is_omega()) return false;  // and nothing else reaches it
    return lex_->leq(a, b);
  }
  bool is_top(const Value& v) const override { return v.is_omega(); }
  bool has_top() const override { return true; }
  std::optional<ValueVec> enumerate() const override {
    auto es = s_->enumerate();
    auto et = t_->enumerate();
    if (!es || !et) return std::nullopt;
    ValueVec out;
    out.push_back(Value::omega());
    for (const Value& x : *es) {
      if (s_->is_top(x)) continue;
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
      if (s_->is_top(x)) {
        out.push_back(Value::omega());
      } else {
        out.push_back(Value::pair(x, ys[static_cast<std::size_t>(i)]));
      }
    }
    return out;
  }

  OrderDesc describe() const override {
    OrderDesc d;
    d.k = OrderDesc::K::LexOmega;
    d.kids = {s_->describe(), t_->describe()};
    return d;
  }

 private:
  PreorderPtr s_, t_;
  PreorderPtr lex_;
};

// Functions (f, g) with the collapse: f(s) ∈ Top(S) sends the pair to ω.
class LexOmegaFamily : public FunctionFamily {
 public:
  LexOmegaFamily(PreorderPtr s_ord, FnFamilyPtr f, FnFamilyPtr g)
      : s_ord_(std::move(s_ord)),
        pair_(fam_pair(std::move(f), std::move(g))) {}

  std::string name() const override {
    return "omega-" + pair_->name();
  }
  Value apply(const Value& label, const Value& a) const override {
    if (a.is_omega()) return Value::omega();
    Value out = pair_->apply(label, a);
    if (s_ord_->is_top(out.first())) return Value::omega();
    return out;
  }
  bool contains(const Value& label) const override {
    return pair_->contains(label);
  }
  std::optional<ValueVec> labels() const override { return pair_->labels(); }
  ValueVec sample_labels(Rng& rng, int n) const override {
    return pair_->sample_labels(rng, n);
  }

  FamilyDesc describe() const override {
    FamilyDesc d;
    d.k = FamilyDesc::K::LexOmega;
    d.kids = {pair_->describe()};
    return d;
  }

 private:
  PreorderPtr s_ord_;
  FnFamilyPtr pair_;
};

// Semigroup-transform version: collapse on the declared absorber of ⊕_S.
class LexOmegaStFamily : public FunctionFamily {
 public:
  LexOmegaStFamily(Value omega_s, FnFamilyPtr f, FnFamilyPtr g)
      : omega_s_(std::move(omega_s)),
        pair_(fam_pair(std::move(f), std::move(g))) {}

  std::string name() const override { return "omega-" + pair_->name(); }
  Value apply(const Value& label, const Value& a) const override {
    if (a.is_omega()) return Value::omega();
    Value out = pair_->apply(label, a);
    if (out.first() == omega_s_) return Value::omega();
    return out;
  }
  bool contains(const Value& label) const override {
    return pair_->contains(label);
  }
  std::optional<ValueVec> labels() const override { return pair_->labels(); }
  ValueVec sample_labels(Rng& rng, int n) const override {
    return pair_->sample_labels(rng, n);
  }

 private:
  Value omega_s_;
  FnFamilyPtr pair_;
};

// --- add_top pieces --------------------------------------------------------

// S ∪ {ω} with ω strictly above everything (the adjoined invalid route).
class AddTopPreorder : public PreorderSet {
 public:
  explicit AddTopPreorder(PreorderPtr s) : s_(std::move(s)) {
    MRT_REQUIRE(s_ != nullptr);
  }
  std::string name() const override { return "add_top(" + s_->name() + ")"; }
  bool contains(const Value& v) const override {
    return v.is_omega() || s_->contains(v);
  }
  bool leq(const Value& a, const Value& b) const override {
    if (b.is_omega()) return true;
    if (a.is_omega()) return false;
    return s_->leq(a, b);
  }
  bool is_top(const Value& v) const override { return v.is_omega(); }
  bool has_top() const override { return true; }
  std::optional<ValueVec> enumerate() const override {
    auto es = s_->enumerate();
    if (!es) return std::nullopt;
    es->push_back(Value::omega());
    return es;
  }
  ValueVec sample(Rng& rng, int n) const override {
    ValueVec out = s_->sample(rng, n);
    for (Value& v : out) {
      if (rng.chance(0.1)) v = Value::omega();
    }
    return out;
  }

  OrderDesc describe() const override {
    OrderDesc d;
    d.k = OrderDesc::K::AddTop;
    d.kids = {s_->describe()};
    return d;
  }

 private:
  PreorderPtr s_;
};

class AddTopFamily : public FunctionFamily {
 public:
  explicit AddTopFamily(FnFamilyPtr f) : f_(std::move(f)) {
    MRT_REQUIRE(f_ != nullptr);
  }
  std::string name() const override { return "top-fixing " + f_->name(); }
  Value apply(const Value& label, const Value& a) const override {
    if (a.is_omega()) return Value::omega();
    return f_->apply(label, a);
  }
  bool contains(const Value& label) const override {
    return f_->contains(label);
  }
  std::optional<ValueVec> labels() const override { return f_->labels(); }
  ValueVec sample_labels(Rng& rng, int n) const override {
    return f_->sample_labels(rng, n);
  }

  FamilyDesc describe() const override {
    FamilyDesc d;
    d.k = FamilyDesc::K::AddTop;
    d.kids = {f_->describe()};
    return d;
  }

 private:
  FnFamilyPtr f_;
};

}  // namespace

OrderTransform add_top(const OrderTransform& s) {
  // The adjoined top must be fresh: applying add_top to a carrier that
  // already contains ω (e.g. a lex_omega product) would collapse the two
  // sentinels and silently change the order. Wrap such algebras in a lex
  // first, or add_top before collapsing.
  MRT_REQUIRE(!s.ord->contains(Value::omega()));
  PropertyReport r;
  auto copy = [&](Prop p, Tri v, const char* why) {
    r.set(p, v, std::string("rule: ") + why);
  };
  copy(Prop::Total, s.props.value(Prop::Total), "omega comparable to all");
  copy(Prop::Antisym, s.props.value(Prop::Antisym), "omega is fresh");
  copy(Prop::HasTop, Tri::True, "omega adjoined");
  copy(Prop::HasBottom, s.props.value(Prop::HasBottom), "unchanged below");
  copy(Prop::OneClass, Tri::False, "omega strictly above the rest");
  copy(Prop::M_L, s.props.value(Prop::M_L),
       "new pairs a <= omega map to f(a) <= omega");
  copy(Prop::N_L, s.props.value(Prop::N_L),
       "no new equivalences: omega meets only itself");
  copy(Prop::C_L, Tri::False, "f(omega) = omega !~ f(a) for old a");
  copy(Prop::ND_L, s.props.value(Prop::ND_L), "omega fixed; rest unchanged");
  copy(Prop::Inc_L, s.props.value(Prop::SInc_L),
       "I(add_top(S)) <=> SI(S): old maxima lose their exemption");
  copy(Prop::SInc_L, Tri::False, "omega is a fixed point");
  copy(Prop::TFix_L, Tri::True, "functions fix omega by construction");
  return OrderTransform{"add_top(" + s.name + ")",
                        std::make_shared<AddTopPreorder>(s.ord),
                        std::make_shared<AddTopFamily>(s.fns), std::move(r)};
}

Bisemigroup lex(const Bisemigroup& s, const Bisemigroup& t) {
  return Bisemigroup{lex_name(s.name, t.name), lex_semigroup(s.add, t.add),
                     direct_semigroup(s.mul, t.mul),
                     infer_lex(StructureKind::Bisemigroup, s.props, t.props)};
}

OrderSemigroup lex(const OrderSemigroup& s, const OrderSemigroup& t) {
  return OrderSemigroup{
      lex_name(s.name, t.name), lex_preorder(s.ord, t.ord),
      direct_semigroup(s.mul, t.mul),
      infer_lex(StructureKind::OrderSemigroup, s.props, t.props)};
}

SemigroupTransform lex(const SemigroupTransform& s,
                       const SemigroupTransform& t) {
  return SemigroupTransform{
      lex_name(s.name, t.name), lex_semigroup(s.add, t.add),
      fam_pair(s.fns, t.fns),
      infer_lex(StructureKind::SemigroupTransform, s.props, t.props)};
}

OrderTransform lex(const OrderTransform& s, const OrderTransform& t) {
  return OrderTransform{
      lex_name(s.name, t.name), lex_preorder(s.ord, t.ord),
      fam_pair(s.fns, t.fns),
      infer_lex(StructureKind::OrderTransform, s.props, t.props)};
}

OrderTransform direct(const OrderTransform& s, const OrderTransform& t) {
  return OrderTransform{"prod(" + s.name + ", " + t.name + ")",
                        direct_preorder(s.ord, t.ord), fam_pair(s.fns, t.fns),
                        infer_direct(s.props, t.props)};
}

OrderTransform lex_omega(const OrderTransform& s, const OrderTransform& t) {
  MRT_REQUIRE(s.ord->has_top());
  return OrderTransform{
      "lex_omega(" + s.name + ", " + t.name + ")",
      std::make_shared<LexOmegaPreorder>(s.ord, t.ord),
      std::make_shared<LexOmegaFamily>(s.ord, s.fns, t.fns),
      infer_lex_omega(StructureKind::OrderTransform, s.props, t.props)};
}

SemigroupTransform lex_omega(const SemigroupTransform& s,
                             const SemigroupTransform& t) {
  auto omega_s = s.add->absorber();
  MRT_REQUIRE(omega_s.has_value());
  return SemigroupTransform{
      "lex_omega(" + s.name + ", " + t.name + ")",
      lex_omega_semigroup(s.add, t.add),
      std::make_shared<LexOmegaStFamily>(*omega_s, s.fns, t.fns),
      infer_lex_omega(StructureKind::SemigroupTransform, s.props, t.props)};
}

OrderTransform left(const OrderTransform& t) {
  return OrderTransform{"left(" + t.name + ")", t.ord,
                        fam_const_of_order(t.ord),
                        infer_left(t.props, probe_shape(*t.ord))};
}

OrderTransform right(const OrderTransform& s) {
  return OrderTransform{"right(" + s.name + ")", s.ord, fam_id(),
                        infer_right(s.props, probe_shape(*s.ord))};
}

OrderTransform fn_union(const OrderTransform& s, const OrderTransform& t) {
  // The paper's + requires both operands to live on the same preordered set.
  MRT_REQUIRE(s.ord == t.ord);
  return OrderTransform{"union(" + s.name + ", " + t.name + ")", s.ord,
                        fam_union(s.fns, t.fns),
                        infer_union(s.props, t.props)};
}

OrderTransform scoped(const OrderTransform& s, const OrderTransform& t) {
  // S ⊙ T = (S ⃗× left(T)) + (right(S) ⃗× T), assembled on one shared order
  // so that the union precondition holds by construction.
  const OrderShape s_shape = probe_shape(*s.ord);
  const OrderShape t_shape = probe_shape(*t.ord);
  const PropertyReport left_t = infer_left(t.props, t_shape);
  const PropertyReport right_s = infer_right(s.props, s_shape);
  const PropertyReport arm1 =
      infer_lex(StructureKind::OrderTransform, s.props, left_t);
  const PropertyReport arm2 =
      infer_lex(StructureKind::OrderTransform, right_s, t.props);

  PreorderPtr ord = lex_preorder(s.ord, t.ord);
  FnFamilyPtr inter = fam_pair(s.fns, fam_const_of_order(t.ord));
  FnFamilyPtr intra = fam_pair(fam_id(), t.fns);
  return OrderTransform{"scoped(" + s.name + ", " + t.name + ")", ord,
                        fam_union(inter, intra), infer_union(arm1, arm2)};
}

OrderTransform delta(const OrderTransform& s, const OrderTransform& t) {
  // S Δ T = (S ⃗× T) + (right(S) ⃗× T).
  const OrderShape s_shape = probe_shape(*s.ord);
  const PropertyReport right_s = infer_right(s.props, s_shape);
  const PropertyReport arm1 =
      infer_lex(StructureKind::OrderTransform, s.props, t.props);
  const PropertyReport arm2 =
      infer_lex(StructureKind::OrderTransform, right_s, t.props);

  PreorderPtr ord = lex_preorder(s.ord, t.ord);
  FnFamilyPtr inter = fam_pair(s.fns, t.fns);
  FnFamilyPtr intra = fam_pair(fam_id(), t.fns);
  return OrderTransform{"delta(" + s.name + ", " + t.name + ")", ord,
                        fam_union(inter, intra), infer_union(arm1, arm2)};
}

}  // namespace mrt
