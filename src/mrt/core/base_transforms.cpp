#include <algorithm>
#include <utility>

#include "mrt/core/bases.hpp"
#include "mrt/core/numeric.hpp"
#include "mrt/support/require.hpp"

namespace mrt {
namespace {

bool int_in(const Value& label, std::int64_t lo, std::int64_t hi) {
  return label.is_int() && lo <= label.as_int() && label.as_int() <= hi;
}

class IdFamily : public FunctionFamily {
 public:
  std::string name() const override { return "{id}"; }
  Value apply(const Value&, const Value& a) const override { return a; }
  bool contains(const Value& label) const override {
    return label.kind() == Value::Kind::Unit;
  }
  std::optional<ValueVec> labels() const override {
    return ValueVec{Value::unit()};
  }
  FamilyDesc describe() const override {
    FamilyDesc d;
    d.k = FamilyDesc::K::Id;
    return d;
  }
};

class ConstFamily : public FunctionFamily {
 public:
  ConstFamily(std::string name, ValueVec values)
      : name_(std::move(name)), values_(std::move(values)) {
    MRT_REQUIRE(!values_.empty());
  }
  std::string name() const override { return name_; }
  Value apply(const Value& label, const Value&) const override {
    return label;  // κ_b indexed by b itself
  }
  bool contains(const Value& label) const override {
    return std::find(values_.begin(), values_.end(), label) != values_.end();
  }
  std::optional<ValueVec> labels() const override { return values_; }
  FamilyDesc describe() const override {
    FamilyDesc d;
    d.k = FamilyDesc::K::Const;
    d.consts = values_;
    return d;
  }

 private:
  std::string name_;
  ValueVec values_;
};

class AddConstFamily : public FunctionFamily {
 public:
  AddConstFamily(std::int64_t lo, std::int64_t hi) : lo_(lo), hi_(hi) {
    MRT_REQUIRE(0 <= lo && lo <= hi);
  }
  std::string name() const override {
    return "{+c | " + std::to_string(lo_) + ".." + std::to_string(hi_) + "}";
  }
  Value apply(const Value& label, const Value& a) const override {
    return ext_add(a, label);
  }
  bool contains(const Value& label) const override {
    return int_in(label, lo_, hi_);
  }
  std::optional<ValueVec> labels() const override {
    ValueVec out;
    for (std::int64_t c = lo_; c <= hi_; ++c) out.push_back(Value::integer(c));
    return out;
  }
  FamilyDesc describe() const override {
    FamilyDesc d;
    d.k = FamilyDesc::K::AddConst;
    return d;
  }

 private:
  std::int64_t lo_, hi_;
};

class MinConstFamily : public FunctionFamily {
 public:
  MinConstFamily(std::int64_t lo, std::int64_t hi) : lo_(lo), hi_(hi) {
    MRT_REQUIRE(0 <= lo && lo <= hi);
  }
  std::string name() const override {
    return "{min(.,c) | " + std::to_string(lo_) + ".." + std::to_string(hi_) +
           ",inf}";
  }
  Value apply(const Value& label, const Value& a) const override {
    return ext_min(a, label);
  }
  bool contains(const Value& label) const override {
    return label.is_inf() || int_in(label, lo_, hi_);
  }
  std::optional<ValueVec> labels() const override {
    ValueVec out;
    for (std::int64_t c = lo_; c <= hi_; ++c) out.push_back(Value::integer(c));
    out.push_back(Value::inf());  // an infinite-capacity link: identity
    return out;
  }
  FamilyDesc describe() const override {
    FamilyDesc d;
    d.k = FamilyDesc::K::MinConst;
    return d;
  }

 private:
  std::int64_t lo_, hi_;
};

class MulConstRealFamily : public FunctionFamily {
 public:
  explicit MulConstRealFamily(std::vector<double> factors)
      : factors_(std::move(factors)) {
    MRT_REQUIRE(!factors_.empty());
    for (double f : factors_) MRT_REQUIRE(f > 0.0 && f <= 1.0);
  }
  std::string name() const override { return "{*c}"; }
  Value apply(const Value& label, const Value& a) const override {
    return Value::real(label.as_real() * a.as_real());
  }
  bool contains(const Value& label) const override {
    return label.kind() == Value::Kind::Real &&
           std::find(factors_.begin(), factors_.end(), label.as_real()) !=
               factors_.end();
  }
  std::optional<ValueVec> labels() const override {
    ValueVec out;
    for (double f : factors_) out.push_back(Value::real(f));
    return out;
  }
  FamilyDesc describe() const override {
    FamilyDesc d;
    d.k = FamilyDesc::K::MulConstReal;
    return d;
  }

 private:
  std::vector<double> factors_;
};

class ChainAddFamily : public FunctionFamily {
 public:
  ChainAddFamily(int n, int lo, int hi) : n_(n), lo_(lo), hi_(hi) {
    MRT_REQUIRE(n >= 0 && 0 <= lo && lo <= hi && hi <= n);
  }
  std::string name() const override {
    return "{min(" + std::to_string(n_) + ", .+c) | " + std::to_string(lo_) +
           ".." + std::to_string(hi_) + "}";
  }
  Value apply(const Value& label, const Value& a) const override {
    return Value::integer(
        std::min<std::int64_t>(n_, a.as_int() + label.as_int()));
  }
  bool contains(const Value& label) const override {
    return int_in(label, lo_, hi_);
  }
  std::optional<ValueVec> labels() const override {
    ValueVec out;
    for (int c = lo_; c <= hi_; ++c) out.push_back(Value::integer(c));
    return out;
  }
  FamilyDesc describe() const override {
    FamilyDesc d;
    d.k = FamilyDesc::K::ChainAdd;
    d.n = n_;
    return d;
  }

 private:
  int n_, lo_, hi_;
};

class TableFamily : public FunctionFamily {
 public:
  TableFamily(std::string name, int carrier_size,
              std::vector<std::vector<int>> fns)
      : name_(std::move(name)), n_(carrier_size), fns_(std::move(fns)) {
    MRT_REQUIRE(n_ >= 1 && !fns_.empty());
    for (const auto& f : fns_) {
      MRT_REQUIRE(f.size() == static_cast<std::size_t>(n_));
      for (int y : f) MRT_REQUIRE(0 <= y && y < n_);
    }
  }
  std::string name() const override { return name_; }
  Value apply(const Value& label, const Value& a) const override {
    const auto f = static_cast<std::size_t>(label.as_int());
    MRT_REQUIRE(f < fns_.size());
    const auto x = static_cast<std::size_t>(a.as_int());
    MRT_REQUIRE(x < static_cast<std::size_t>(n_));
    return Value::integer(fns_[f][x]);
  }
  bool contains(const Value& label) const override {
    return int_in(label, 0, static_cast<std::int64_t>(fns_.size()) - 1);
  }
  std::optional<ValueVec> labels() const override {
    ValueVec out;
    for (std::size_t i = 0; i < fns_.size(); ++i) {
      out.push_back(Value::integer(static_cast<std::int64_t>(i)));
    }
    return out;
  }
  FamilyDesc describe() const override {
    FamilyDesc d;
    d.k = FamilyDesc::K::Table;
    d.n = n_;
    d.fns = fns_;
    return d;
  }

 private:
  std::string name_;
  int n_;
  std::vector<std::vector<int>> fns_;
};

// Annotation helpers: base-algebra properties are axioms with short proof
// notes; the test suite corroborates each with the checker.
void note(PropertyReport& r, Prop p, bool v, const char* why) {
  r.set(p, v, std::string("axiom: ") + why);
}

}  // namespace

FnFamilyPtr fam_id() { return std::make_shared<IdFamily>(); }

FnFamilyPtr fam_const_of(std::string name, ValueVec values) {
  return std::make_shared<ConstFamily>(std::move(name), std::move(values));
}

FnFamilyPtr fam_add_const(std::int64_t lo, std::int64_t hi) {
  return std::make_shared<AddConstFamily>(lo, hi);
}

FnFamilyPtr fam_min_const(std::int64_t lo, std::int64_t hi) {
  return std::make_shared<MinConstFamily>(lo, hi);
}

FnFamilyPtr fam_mul_const_real(std::vector<double> factors) {
  return std::make_shared<MulConstRealFamily>(std::move(factors));
}

FnFamilyPtr fam_chain_add(int n, int lo, int hi) {
  return std::make_shared<ChainAddFamily>(n, lo, hi);
}

FnFamilyPtr fam_table(std::string name, int carrier_size,
                      std::vector<std::vector<int>> fns) {
  return std::make_shared<TableFamily>(std::move(name), carrier_size,
                                       std::move(fns));
}

// ---------------------------------------------------------------------------
// Canonical quadrant instances
// ---------------------------------------------------------------------------

Bisemigroup bs_shortest_path() {
  // Plain ℕ, exactly as the paper writes (ℕ, min, +): with ∞ adjoined the
  // N property would fail (∞+a = ∞+b) and the running example would break.
  Bisemigroup a{"(N, min, +)", sg_min(false), sg_plus(false), {}};
  note(a.props, Prop::Assoc, true, "min is associative");
  note(a.props, Prop::Comm, true, "min is commutative");
  note(a.props, Prop::Idem, true, "min is idempotent");
  note(a.props, Prop::Selective, true, "min picks an operand");
  note(a.props, Prop::HasIdentity, false, "plain N: no min-identity");
  note(a.props, Prop::HasAbsorber, true, "min 0 = absorber");
  note(a.props, Prop::MulAssoc, true, "+ is associative");
  note(a.props, Prop::M_L, true, "+ distributes over min");
  note(a.props, Prop::M_R, true, "+ distributes over min");
  note(a.props, Prop::N_L, true, "c+a = c+b => a=b on plain N");
  note(a.props, Prop::N_R, true, "a+c = b+c => a=b");
  note(a.props, Prop::C_L, false, "c+0 != c+1");
  note(a.props, Prop::C_R, false, "0+c != 1+c");
  note(a.props, Prop::ND_L, true, "a = min(a, c+a) for c,a >= 0");
  note(a.props, Prop::ND_R, true, "a = min(a, a+c)");
  note(a.props, Prop::Inc_L, false, "c=0: a = 0+a, not strict");
  note(a.props, Prop::Inc_R, false, "c=0: a = a+0, not strict");
  note(a.props, Prop::SInc_L, false, "c=0 again");
  note(a.props, Prop::SInc_R, false, "c=0 again");
  return a;
}

Bisemigroup bs_widest_path() {
  Bisemigroup a{"(N, max, min)", sg_max(false), sg_min(false), {}};
  note(a.props, Prop::Assoc, true, "max is associative");
  note(a.props, Prop::Comm, true, "max is commutative");
  note(a.props, Prop::Idem, true, "max is idempotent");
  note(a.props, Prop::Selective, true, "max picks an operand");
  note(a.props, Prop::HasIdentity, true, "max 0 = id");
  note(a.props, Prop::HasAbsorber, false, "plain N: no max-absorber");
  note(a.props, Prop::MulAssoc, true, "min is associative");
  note(a.props, Prop::M_L, true, "min distributes over max");
  note(a.props, Prop::M_R, true, "min distributes over max");
  note(a.props, Prop::N_L, false, "min(0,a)=min(0,b)=0 for a!=b");
  note(a.props, Prop::N_R, false, "min(a,0)=min(b,0)=0");
  note(a.props, Prop::C_L, false, "min(c,a)=a for c>=a distinguishes");
  note(a.props, Prop::C_R, false, "symmetric");
  note(a.props, Prop::ND_L, true, "a = max(a, min(c,a))");
  note(a.props, Prop::ND_R, true, "a = max(a, min(a,c))");
  note(a.props, Prop::Inc_L, false, "min(c,a)=a for c>=a: weight kept");
  note(a.props, Prop::Inc_R, false, "symmetric");
  note(a.props, Prop::SInc_L, false, "as above");
  note(a.props, Prop::SInc_R, false, "as above");
  return a;
}

Bisemigroup bs_path_count() {
  Bisemigroup a{"(N, +, x)", sg_plus(false), sg_times_nat(false), {}};
  note(a.props, Prop::Assoc, true, "+ is associative");
  note(a.props, Prop::Comm, true, "+ is commutative");
  note(a.props, Prop::Idem, false, "1+1 != 1");
  note(a.props, Prop::Selective, false, "1+1 = 2");
  note(a.props, Prop::HasIdentity, true, "0");
  note(a.props, Prop::HasAbsorber, false, "plain N: no +-absorber");
  note(a.props, Prop::MulAssoc, true, "x is associative");
  note(a.props, Prop::M_L, true, "x distributes over +");
  note(a.props, Prop::M_R, true, "x distributes over +");
  note(a.props, Prop::N_L, false, "0*a = 0*b");
  note(a.props, Prop::N_R, false, "a*0 = b*0");
  note(a.props, Prop::C_L, false, "1*a = a distinguishes");
  note(a.props, Prop::C_R, false, "a*1 = a");
  return a;
}

OrderSemigroup os_shortest_path() {
  OrderSemigroup a{"(N, <=, +)", ord_nat_leq(false), sg_plus(false), {}};
  note(a.props, Prop::Total, true, "numeric order");
  note(a.props, Prop::Antisym, true, "numeric order");
  note(a.props, Prop::HasTop, false, "plain N is unbounded");
  note(a.props, Prop::HasBottom, true, "0");
  note(a.props, Prop::OneClass, false, "0 < 1");
  note(a.props, Prop::MulAssoc, true, "+ associative");
  note(a.props, Prop::M_L, true, "a<=b => c+a <= c+b");
  note(a.props, Prop::M_R, true, "a<=b => a+c <= b+c");
  note(a.props, Prop::N_L, true, "c+a = c+b => a=b on plain N");
  note(a.props, Prop::N_R, true, "symmetric");
  note(a.props, Prop::C_L, false, "c+0 < c+1");
  note(a.props, Prop::C_R, false, "0+c < 1+c");
  note(a.props, Prop::ND_L, true, "a <= c+a");
  note(a.props, Prop::ND_R, true, "a <= a+c");
  note(a.props, Prop::Inc_L, false, "c=0 keeps weight");
  note(a.props, Prop::Inc_R, false, "c=0 keeps weight");
  note(a.props, Prop::SInc_L, false, "c=0");
  note(a.props, Prop::SInc_R, false, "c=0");
  note(a.props, Prop::TFix_L, true, "vacuous: no top");
  note(a.props, Prop::TFix_R, true, "vacuous: no top");
  return a;
}

OrderSemigroup os_widest_path() {
  OrderSemigroup a{"(N, >=, min)", ord_nat_geq(false), sg_min(false), {}};
  note(a.props, Prop::Total, true, "numeric order reversed");
  note(a.props, Prop::Antisym, true, "numeric order reversed");
  note(a.props, Prop::HasTop, true, "0 (zero bandwidth)");
  note(a.props, Prop::HasBottom, false, "plain N is unbounded");
  note(a.props, Prop::OneClass, false, "1 and 2 differ");
  note(a.props, Prop::MulAssoc, true, "min associative");
  note(a.props, Prop::M_L, true, "a>=b => min(c,a) >= min(c,b)");
  note(a.props, Prop::M_R, true, "symmetric");
  note(a.props, Prop::N_L, false, "min(0,a)=min(0,b), a!=b strictly ordered");
  note(a.props, Prop::N_R, false, "symmetric");
  note(a.props, Prop::C_L, false, "min(c,a)=a for c>=a distinguishes");
  note(a.props, Prop::C_R, false, "symmetric");
  note(a.props, Prop::ND_L, true, "min(c,a) <=num a, so extension not better");
  note(a.props, Prop::ND_R, true, "symmetric");
  note(a.props, Prop::Inc_L, false, "min(c,a) = a for c >= a");
  note(a.props, Prop::Inc_R, false, "symmetric");
  note(a.props, Prop::SInc_L, false, "as above");
  note(a.props, Prop::SInc_R, false, "as above");
  note(a.props, Prop::TFix_L, true, "min(c,0) = 0");
  note(a.props, Prop::TFix_R, true, "min(0,c) = 0");
  return a;
}

OrderSemigroup os_reliability() {
  OrderSemigroup a{"([0,1], >=, x)", ord_unit_real_geq(), sg_times_real(), {}};
  note(a.props, Prop::Total, true, "numeric order reversed");
  note(a.props, Prop::Antisym, true, "numeric order reversed");
  note(a.props, Prop::HasTop, true, "0.0");
  note(a.props, Prop::HasBottom, true, "1.0");
  note(a.props, Prop::OneClass, false, "0.5 and 1.0 differ");
  note(a.props, Prop::MulAssoc, true, "x associative");
  note(a.props, Prop::M_L, true, "a>=b => ca >= cb for c >= 0");
  note(a.props, Prop::M_R, true, "symmetric");
  note(a.props, Prop::N_L, false, "0a = 0b for a != b");
  note(a.props, Prop::N_R, false, "symmetric");
  note(a.props, Prop::C_L, false, "1a = a distinguishes");
  note(a.props, Prop::C_R, false, "symmetric");
  note(a.props, Prop::ND_L, true, "ca <= a for c in [0,1]");
  note(a.props, Prop::ND_R, true, "symmetric");
  note(a.props, Prop::Inc_L, false, "c=1 keeps weight");
  note(a.props, Prop::Inc_R, false, "c=1 keeps weight");
  note(a.props, Prop::SInc_L, false, "c=1");
  note(a.props, Prop::SInc_R, false, "c=1");
  note(a.props, Prop::TFix_L, true, "c*0 = 0");
  note(a.props, Prop::TFix_R, true, "0*c = 0");
  return a;
}

SemigroupTransform st_shortest_path(std::int64_t max_c) {
  SemigroupTransform a{"(N, min, {+c})", sg_min(), fam_add_const(1, max_c), {}};
  note(a.props, Prop::Assoc, true, "min associative");
  note(a.props, Prop::Comm, true, "min commutative");
  note(a.props, Prop::Idem, true, "min idempotent");
  note(a.props, Prop::Selective, true, "min selective");
  note(a.props, Prop::HasIdentity, true, "inf");
  note(a.props, Prop::HasAbsorber, true, "0");
  note(a.props, Prop::M_L, true, "+c is a min-homomorphism");
  note(a.props, Prop::N_L, true, "+c injective on N u {inf}");
  note(a.props, Prop::C_L, false, "+c not constant");
  note(a.props, Prop::ND_L, true, "a = min(a, a+c), c >= 1");
  // In this quadrant I requires a != f(a) at *every* point; inf+c = inf.
  note(a.props, Prop::Inc_L, false, "at inf: min(inf, inf+c) = inf = f(inf)");
  note(a.props, Prop::SInc_L, false, "same fixed point at inf");
  return a;
}

OrderTransform ot_shortest_path(std::int64_t max_c) {
  OrderTransform a{"(N, <=, {+c})", ord_nat_leq(), fam_add_const(1, max_c), {}};
  note(a.props, Prop::Total, true, "numeric order");
  note(a.props, Prop::Antisym, true, "numeric order");
  note(a.props, Prop::HasTop, true, "inf");
  note(a.props, Prop::HasBottom, true, "0");
  note(a.props, Prop::OneClass, false, "0 < 1");
  note(a.props, Prop::M_L, true, "a<=b => a+c <= b+c");
  note(a.props, Prop::N_L, true, "a+c = b+c => a=b (inf only meets inf)");
  note(a.props, Prop::C_L, false, "0+c < 1+c");
  note(a.props, Prop::ND_L, true, "a <= a+c");
  note(a.props, Prop::Inc_L, true, "a != inf => a < a+c, c >= 1");
  note(a.props, Prop::SInc_L, false, "inf+c = inf: not strict at top");
  note(a.props, Prop::TFix_L, true, "inf+c = inf");
  return a;
}

OrderTransform ot_widest_path(std::int64_t max_c) {
  OrderTransform a{"(N, >=, {min(.,c)})", ord_nat_geq(),
                   fam_min_const(0, max_c), {}};
  note(a.props, Prop::Total, true, "numeric order reversed");
  note(a.props, Prop::Antisym, true, "numeric order reversed");
  note(a.props, Prop::HasTop, true, "0");
  note(a.props, Prop::HasBottom, true, "inf");
  note(a.props, Prop::OneClass, false, "bandwidths differ");
  note(a.props, Prop::M_L, true, "a>=b => min(a,c) >= min(b,c)");
  note(a.props, Prop::N_L, false, "min(1,0)=min(2,0)... c below both: collide");
  note(a.props, Prop::C_L, false, "min(.,inf) = id distinguishes");
  note(a.props, Prop::ND_L, true, "min(a,c) <=num a");
  note(a.props, Prop::Inc_L, false, "min(a,inf) = a: no strict decrease");
  note(a.props, Prop::SInc_L, false, "as above");
  note(a.props, Prop::TFix_L, true, "min(0,c) = 0");
  return a;
}

OrderTransform ot_reliability(std::vector<double> factors) {
  bool all_strict = true;
  for (double f : factors) all_strict = all_strict && f < 1.0;
  OrderTransform a{"([0,1], >=, {*c})", ord_unit_real_geq(),
                   fam_mul_const_real(std::move(factors)), {}};
  note(a.props, Prop::Total, true, "numeric order reversed");
  note(a.props, Prop::Antisym, true, "numeric order reversed");
  note(a.props, Prop::HasTop, true, "0.0");
  note(a.props, Prop::HasBottom, true, "1.0");
  note(a.props, Prop::OneClass, false, "0.5 and 1.0 differ");
  note(a.props, Prop::M_L, true, "c > 0 preserves >=");
  note(a.props, Prop::N_L, true, "c > 0: ca = cb => a = b");
  note(a.props, Prop::C_L, false, "c*1 != c*0.5 for c > 0");
  note(a.props, Prop::ND_L, true, "ca <= a for c <= 1");
  note(a.props, Prop::Inc_L, all_strict, "strict iff every factor < 1");
  note(a.props, Prop::SInc_L, false, "c*0 = 0 at top");
  note(a.props, Prop::TFix_L, true, "c*0 = 0");
  return a;
}

OrderTransform ot_hop_count() {
  OrderTransform a{"hops", ord_nat_leq(), fam_add_const(1, 1), {}};
  note(a.props, Prop::Total, true, "numeric order");
  note(a.props, Prop::Antisym, true, "numeric order");
  note(a.props, Prop::HasTop, true, "inf");
  note(a.props, Prop::HasBottom, true, "0");
  note(a.props, Prop::OneClass, false, "0 < 1");
  note(a.props, Prop::M_L, true, "+1 monotone");
  note(a.props, Prop::N_L, true, "+1 injective");
  note(a.props, Prop::C_L, false, "+1 not constant");
  note(a.props, Prop::ND_L, true, "a <= a+1");
  note(a.props, Prop::Inc_L, true, "a != inf => a < a+1");
  note(a.props, Prop::SInc_L, false, "inf+1 = inf");
  note(a.props, Prop::TFix_L, true, "inf+1 = inf");
  return a;
}

OrderTransform ot_chain_add(int n, int lo, int hi) {
  // Finite, so no annotations: the checker decides everything exactly.
  return OrderTransform{"chain_add(" + std::to_string(n) + ")", ord_chain(n),
                        fam_chain_add(n, lo, hi), {}};
}

}  // namespace mrt
