#include <algorithm>
#include <utility>

#include "mrt/core/bases.hpp"
#include "mrt/core/numeric.hpp"
#include "mrt/support/require.hpp"

namespace mrt {
namespace {

// Sampling window for ℕ(∪{∞}) carriers: small naturals exercise the
// interesting collisions; ∞ (when present) appears with fixed probability.
ValueVec sample_ext_nat(Rng& rng, int n, bool with_inf) {
  ValueVec out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (with_inf && rng.chance(0.1)) {
      out.push_back(Value::inf());
    } else {
      out.push_back(Value::integer(rng.range(0, 15)));
    }
  }
  return out;
}

class ExtNatSemigroup : public Semigroup {
 public:
  enum class Op { Min, Max, Plus, Times };
  ExtNatSemigroup(Op op, bool with_inf) : op_(op), with_inf_(with_inf) {}

  std::string name() const override {
    const char* suffix = with_inf_ ? "" : ".nat";
    switch (op_) {
      case Op::Min: return std::string("min") + suffix;
      case Op::Max: return std::string("max") + suffix;
      case Op::Plus: return std::string("plus") + suffix;
      case Op::Times: return std::string("times") + suffix;
    }
    MRT_UNREACHABLE("bad op");
  }

  bool contains(const Value& v) const override {
    if (v.is_inf()) return with_inf_;
    return v.is_int() && v.as_int() >= 0;
  }

  Value op(const Value& a, const Value& b) const override {
    switch (op_) {
      case Op::Min: return ext_min(a, b);
      case Op::Max: return ext_max(a, b);
      case Op::Plus: return ext_add(a, b);
      case Op::Times: return ext_mul(a, b);
    }
    MRT_UNREACHABLE("bad op");
  }

  std::optional<Value> identity() const override {
    switch (op_) {
      case Op::Min:
        if (!with_inf_) return std::nullopt;  // plain N has no min-identity
        return Value::inf();
      case Op::Max: return Value::integer(0);
      case Op::Plus: return Value::integer(0);
      case Op::Times: return Value::integer(1);
    }
    MRT_UNREACHABLE("bad op");
  }

  std::optional<Value> absorber() const override {
    switch (op_) {
      case Op::Min: return Value::integer(0);
      case Op::Max:
      case Op::Plus:
      case Op::Times:
        if (!with_inf_) return std::nullopt;
        return Value::inf();  // saturating: even 0·∞ = ∞ here
    }
    MRT_UNREACHABLE("bad op");
  }

  ValueVec sample(Rng& rng, int n) const override {
    return sample_ext_nat(rng, n, with_inf_);
  }

 private:
  Op op_;
  bool with_inf_;
};

class UnitRealSemigroup : public Semigroup {
 public:
  enum class Op { Max, Times };
  explicit UnitRealSemigroup(Op op) : op_(op) {}

  std::string name() const override {
    return op_ == Op::Max ? "max.real" : "times.real";
  }

  bool contains(const Value& v) const override {
    return v.kind() == Value::Kind::Real && v.as_real() >= 0.0 &&
           v.as_real() <= 1.0;
  }

  Value op(const Value& a, const Value& b) const override {
    const double x = a.as_real();
    const double y = b.as_real();
    return Value::real(op_ == Op::Max ? std::max(x, y) : x * y);
  }

  std::optional<Value> identity() const override {
    return Value::real(op_ == Op::Max ? 0.0 : 1.0);
  }

  std::optional<Value> absorber() const override {
    return Value::real(op_ == Op::Max ? 1.0 : 0.0);
  }

  ValueVec sample(Rng& rng, int n) const override {
    ValueVec out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      // Quantized to 1/16ths so that collisions (and the endpoints) occur.
      out.push_back(Value::real(static_cast<double>(rng.range(0, 16)) / 16.0));
    }
    return out;
  }

 private:
  Op op_;
};

// Finite chain {0..n} under one of the three chain operations.
class ChainSemigroup : public Semigroup {
 public:
  enum class Op { Min, Max, SatPlus };
  ChainSemigroup(Op op, int n) : op_(op), n_(n) { MRT_REQUIRE(n >= 0); }

  std::string name() const override {
    const std::string bound = std::to_string(n_);
    switch (op_) {
      case Op::Min: return "chain_min(" + bound + ")";
      case Op::Max: return "chain_max(" + bound + ")";
      case Op::SatPlus: return "chain_plus(" + bound + ")";
    }
    MRT_UNREACHABLE("bad op");
  }

  bool contains(const Value& v) const override {
    return v.is_int() && v.as_int() >= 0 && v.as_int() <= n_;
  }

  Value op(const Value& a, const Value& b) const override {
    const std::int64_t x = a.as_int();
    const std::int64_t y = b.as_int();
    switch (op_) {
      case Op::Min: return Value::integer(std::min(x, y));
      case Op::Max: return Value::integer(std::max(x, y));
      case Op::SatPlus: return Value::integer(std::min<std::int64_t>(n_, x + y));
    }
    MRT_UNREACHABLE("bad op");
  }

  std::optional<Value> identity() const override {
    switch (op_) {
      case Op::Min: return Value::integer(n_);
      case Op::Max: return Value::integer(0);
      case Op::SatPlus: return Value::integer(0);
    }
    MRT_UNREACHABLE("bad op");
  }

  std::optional<Value> absorber() const override {
    switch (op_) {
      case Op::Min: return Value::integer(0);
      case Op::Max: return Value::integer(n_);
      case Op::SatPlus: return Value::integer(n_);
    }
    MRT_UNREACHABLE("bad op");
  }

  std::optional<ValueVec> enumerate() const override {
    ValueVec out;
    out.reserve(static_cast<std::size_t>(n_) + 1);
    for (int i = 0; i <= n_; ++i) out.push_back(Value::integer(i));
    return out;
  }

 private:
  Op op_;
  int n_;
};

class ModPlusSemigroup : public Semigroup {
 public:
  explicit ModPlusSemigroup(int n) : n_(n) { MRT_REQUIRE(n >= 1); }

  std::string name() const override {
    return "plus_mod(" + std::to_string(n_) + ")";
  }
  bool contains(const Value& v) const override {
    return v.is_int() && v.as_int() >= 0 && v.as_int() < n_;
  }
  Value op(const Value& a, const Value& b) const override {
    return Value::integer((a.as_int() + b.as_int()) % n_);
  }
  std::optional<Value> identity() const override { return Value::integer(0); }
  std::optional<ValueVec> enumerate() const override {
    ValueVec out;
    for (int i = 0; i < n_; ++i) out.push_back(Value::integer(i));
    return out;
  }

 private:
  int n_;
};

class ProjSemigroup : public Semigroup {
 public:
  ProjSemigroup(bool left, int n) : left_(left), n_(n) { MRT_REQUIRE(n >= 1); }

  std::string name() const override {
    return std::string(left_ ? "left_proj(" : "right_proj(") +
           std::to_string(n_) + ")";
  }
  bool contains(const Value& v) const override {
    return v.is_int() && v.as_int() >= 0 && v.as_int() < n_;
  }
  Value op(const Value& a, const Value& b) const override {
    return left_ ? a : b;
  }
  std::optional<ValueVec> enumerate() const override {
    ValueVec out;
    for (int i = 0; i < n_; ++i) out.push_back(Value::integer(i));
    return out;
  }

 private:
  bool left_;
  int n_;
};

// Subsets of {0..k-1} as bitmask Ints, under union or intersection.
class BitsSemigroup : public Semigroup {
 public:
  BitsSemigroup(bool is_union, int k) : union_(is_union), k_(k) {
    MRT_REQUIRE(k >= 1 && k <= 16);
  }

  std::string name() const override {
    return std::string(union_ ? "union_bits(" : "inter_bits(") +
           std::to_string(k_) + ")";
  }
  bool contains(const Value& v) const override {
    return v.is_int() && v.as_int() >= 0 && v.as_int() < (std::int64_t{1} << k_);
  }
  Value op(const Value& a, const Value& b) const override {
    const std::int64_t x = a.as_int();
    const std::int64_t y = b.as_int();
    return Value::integer(union_ ? (x | y) : (x & y));
  }
  std::optional<Value> identity() const override {
    return Value::integer(union_ ? 0 : full());
  }
  std::optional<Value> absorber() const override {
    return Value::integer(union_ ? full() : 0);
  }
  std::optional<ValueVec> enumerate() const override {
    ValueVec out;
    for (std::int64_t m = 0; m < (std::int64_t{1} << k_); ++m) {
      out.push_back(Value::integer(m));
    }
    return out;
  }

 private:
  std::int64_t full() const { return (std::int64_t{1} << k_) - 1; }
  bool union_;
  int k_;
};

class TableSemigroup : public Semigroup {
 public:
  TableSemigroup(std::string name, std::vector<std::vector<int>> table)
      : name_(std::move(name)), table_(std::move(table)) {
    const std::size_t n = table_.size();
    MRT_REQUIRE(n >= 1);
    for (const auto& row : table_) {
      MRT_REQUIRE(row.size() == n);
      for (int v : row) MRT_REQUIRE(v >= 0 && static_cast<std::size_t>(v) < n);
    }
  }

  std::string name() const override { return name_; }
  bool contains(const Value& v) const override {
    return v.is_int() && v.as_int() >= 0 &&
           static_cast<std::size_t>(v.as_int()) < table_.size();
  }
  Value op(const Value& a, const Value& b) const override {
    MRT_REQUIRE(contains(a) && contains(b));
    return Value::integer(
        table_[static_cast<std::size_t>(a.as_int())]
              [static_cast<std::size_t>(b.as_int())]);
  }
  std::optional<Value> identity() const override {
    for (std::size_t e = 0; e < table_.size(); ++e) {
      bool ok = true;
      for (std::size_t x = 0; x < table_.size(); ++x) {
        if (table_[e][x] != static_cast<int>(x) ||
            table_[x][e] != static_cast<int>(x)) {
          ok = false;
          break;
        }
      }
      if (ok) return Value::integer(static_cast<std::int64_t>(e));
    }
    return std::nullopt;
  }
  std::optional<Value> absorber() const override {
    for (std::size_t w = 0; w < table_.size(); ++w) {
      bool ok = true;
      for (std::size_t x = 0; x < table_.size(); ++x) {
        if (table_[w][x] != static_cast<int>(w) ||
            table_[x][w] != static_cast<int>(w)) {
          ok = false;
          break;
        }
      }
      if (ok) return Value::integer(static_cast<std::int64_t>(w));
    }
    return std::nullopt;
  }
  std::optional<ValueVec> enumerate() const override {
    ValueVec out;
    for (std::size_t i = 0; i < table_.size(); ++i) {
      out.push_back(Value::integer(static_cast<std::int64_t>(i)));
    }
    return out;
  }

 private:
  std::string name_;
  std::vector<std::vector<int>> table_;
};

}  // namespace

SemigroupPtr sg_min(bool with_inf) {
  return std::make_shared<ExtNatSemigroup>(ExtNatSemigroup::Op::Min, with_inf);
}
SemigroupPtr sg_max(bool with_inf) {
  return std::make_shared<ExtNatSemigroup>(ExtNatSemigroup::Op::Max, with_inf);
}
SemigroupPtr sg_plus(bool with_inf) {
  return std::make_shared<ExtNatSemigroup>(ExtNatSemigroup::Op::Plus, with_inf);
}
SemigroupPtr sg_times_nat(bool with_inf) {
  return std::make_shared<ExtNatSemigroup>(ExtNatSemigroup::Op::Times,
                                           with_inf);
}
SemigroupPtr sg_max_real() {
  return std::make_shared<UnitRealSemigroup>(UnitRealSemigroup::Op::Max);
}
SemigroupPtr sg_times_real() {
  return std::make_shared<UnitRealSemigroup>(UnitRealSemigroup::Op::Times);
}
SemigroupPtr sg_chain_min(int n) {
  return std::make_shared<ChainSemigroup>(ChainSemigroup::Op::Min, n);
}
SemigroupPtr sg_chain_max(int n) {
  return std::make_shared<ChainSemigroup>(ChainSemigroup::Op::Max, n);
}
SemigroupPtr sg_chain_plus(int n) {
  return std::make_shared<ChainSemigroup>(ChainSemigroup::Op::SatPlus, n);
}
SemigroupPtr sg_plus_mod(int n) {
  return std::make_shared<ModPlusSemigroup>(n);
}
SemigroupPtr sg_left_proj(int n) {
  return std::make_shared<ProjSemigroup>(true, n);
}
SemigroupPtr sg_right_proj(int n) {
  return std::make_shared<ProjSemigroup>(false, n);
}
SemigroupPtr sg_union_bits(int k) {
  return std::make_shared<BitsSemigroup>(true, k);
}
SemigroupPtr sg_inter_bits(int k) {
  return std::make_shared<BitsSemigroup>(false, k);
}
SemigroupPtr sg_table(std::string name, std::vector<std::vector<int>> table) {
  return std::make_shared<TableSemigroup>(std::move(name), std::move(table));
}

}  // namespace mrt
