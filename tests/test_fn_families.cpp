// Base function families and remaining component APIs.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "mrt/compile/compile.hpp"
#include "mrt/core/bases.hpp"
#include "mrt/core/combinators.hpp"
#include "mrt/core/lex.hpp"
#include "mrt/core/random_algebra.hpp"
#include "mrt/core/translations.hpp"
#include "mrt/sim/scenario.hpp"

namespace mrt {
namespace {

using mrt::testing::I;

TEST(FamId, SingleIdentityLabel) {
  auto f = fam_id();
  EXPECT_EQ(f->labels()->size(), 1u);
  EXPECT_EQ(f->apply(Value::unit(), I(7)), I(7));
  EXPECT_EQ(f->apply(Value::unit(), Value::inf()), Value::inf());
}

TEST(FamConstOf, LabelsAreTheValues) {
  auto f = fam_const_of("consts", {I(1), I(2)});
  EXPECT_EQ(f->labels()->size(), 2u);
  EXPECT_EQ(f->apply(I(2), I(99)), I(2));
  EXPECT_THROW(fam_const_of("empty", {}), std::logic_error);
}

TEST(FamAddConst, LabelsAndSaturation) {
  auto f = fam_add_const(1, 3);
  EXPECT_EQ(*f->labels(), (ValueVec{I(1), I(2), I(3)}));
  EXPECT_EQ(f->apply(I(2), I(5)), I(7));
  EXPECT_EQ(f->apply(I(2), Value::inf()), Value::inf());
  EXPECT_THROW(fam_add_const(3, 1), std::logic_error);
  EXPECT_THROW(fam_add_const(-1, 1), std::logic_error);
}

TEST(FamMinConst, IncludesUnlimitedLink) {
  auto f = fam_min_const(0, 2);
  const ValueVec labels = *f->labels();
  ASSERT_EQ(labels.size(), 4u);  // 0,1,2,inf
  EXPECT_EQ(labels.back(), Value::inf());
  EXPECT_EQ(f->apply(I(1), I(5)), I(1));
  EXPECT_EQ(f->apply(Value::inf(), I(5)), I(5));
}

TEST(FamMulConstReal, ValidatesFactors) {
  auto f = fam_mul_const_real({0.5, 1.0});
  EXPECT_EQ(f->apply(Value::real(0.5), Value::real(0.5)), Value::real(0.25));
  EXPECT_THROW(fam_mul_const_real({0.0}), std::logic_error);   // must be > 0
  EXPECT_THROW(fam_mul_const_real({1.5}), std::logic_error);   // must be <= 1
  EXPECT_THROW(fam_mul_const_real({}), std::logic_error);
}

TEST(FamChainAdd, SaturatesAtBound) {
  auto f = fam_chain_add(4, 1, 2);
  EXPECT_EQ(f->apply(I(2), I(3)), I(4));
  EXPECT_EQ(f->apply(I(1), I(1)), I(2));
  EXPECT_THROW(fam_chain_add(4, 1, 5), std::logic_error);  // hi > n
}

TEST(FamTable, ValidatesShape) {
  EXPECT_THROW(fam_table("bad", 2, {{0, 1, 0}}), std::logic_error);  // arity
  EXPECT_THROW(fam_table("bad", 2, {{0, 2}}), std::logic_error);     // range
  EXPECT_THROW(fam_table("bad", 2, {}), std::logic_error);           // empty
  auto f = fam_table("ok", 2, {{1, 0}});
  EXPECT_EQ(f->apply(I(0), I(0)), I(1));
  EXPECT_THROW(f->apply(I(1), I(0)), std::logic_error);  // unknown label
}

TEST(FamPair, CrossesLabels) {
  auto f = fam_pair(fam_add_const(1, 2), fam_min_const(0, 1));
  // 2 add labels x 3 min labels (0,1,inf).
  EXPECT_EQ(f->labels()->size(), 6u);
  EXPECT_EQ(f->apply(Value::pair(I(1), I(0)), Value::pair(I(4), I(9))),
            Value::pair(I(5), I(0)));
}

TEST(FamUnion, TagsSelectTheSide) {
  auto f = fam_union(fam_add_const(1, 1), fam_id());
  EXPECT_EQ(f->apply(Value::tagged(1, I(1)), I(5)), I(6));
  EXPECT_EQ(f->apply(Value::tagged(2, Value::unit()), I(5)), I(5));
  EXPECT_THROW(f->apply(I(0), I(5)), std::logic_error);  // untagged label
  EXPECT_THROW(f->apply(Value::tagged(3, I(0)), I(5)), std::logic_error);
}

TEST(FamUnion, LabelEnumerationKeepsBothSides) {
  auto f = fam_union(fam_add_const(1, 2), fam_id());
  const ValueVec labels = *f->labels();
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0].tag(), 1);
  EXPECT_EQ(labels[2].tag(), 2);
}

TEST(SampleLabels, DeterministicInSeed) {
  auto f = fam_add_const(1, 9);
  Rng a(3), b(3);
  EXPECT_EQ(f->sample_labels(a, 10), f->sample_labels(b, 10));
}

TEST(Quadrants, ValidateAcceptsWellFormed) {
  EXPECT_NO_THROW(validate(bs_shortest_path()));
  EXPECT_NO_THROW(validate(os_widest_path()));
  EXPECT_NO_THROW(validate(st_shortest_path(3)));
  EXPECT_NO_THROW(validate(ot_reliability()));
}

TEST(Quadrants, ValidateRejectsNullAndMismatchedCarriers) {
  Bisemigroup broken{"broken", nullptr, sg_plus(), {}};
  EXPECT_THROW(validate(broken), std::logic_error);
  // Mismatched finite carriers: chain(2) vs chain(5).
  Bisemigroup mismatched{"m", sg_chain_min(2), sg_chain_plus(5), {}};
  EXPECT_THROW(validate(mismatched), std::logic_error);
}

TEST(CheckerLimits, SmallEnumBudgetFallsBackToSampling) {
  Checker tight(CheckLimits{.max_enum = 2, .samples = 50,
                            .max_tuples = 1000, .seed = 1});
  // chain has 5 elements > max_enum 2: verdicts become sampled.
  const CheckResult r = tight.prop(ot_chain_add(4, 1, 2), Prop::M_L);
  EXPECT_FALSE(r.exhaustive);
  EXPECT_NE(r.verdict, Tri::False);
}

TEST(Sampling, InfiniteCarrierSamplesStayInCarrier) {
  Rng rng(9);
  auto ord = ord_unit_real_geq();
  for (const Value& v : ord->sample(rng, 100)) {
    EXPECT_TRUE(ord->contains(v)) << v.to_string();
  }
  auto sg = sg_plus();
  for (const Value& v : sg->sample(rng, 100)) {
    EXPECT_TRUE(sg->contains(v)) << v.to_string();
  }
}

// --- FunctionFamily::contains ----------------------------------------------

/// A label changed in one position. `structural` marks the variants no
/// family holds whatever its range: a wrong kind, a wrong tuple arity, an
/// unknown union tag, or a negative integer (every base range starts at 0).
struct Variant {
  Value v;
  bool structural = false;
};

/// The neighbours of `l`: every integer leaf ±1 and at -1, every real leaf
/// halved, every leaf swapped for ∞ and for a value of the wrong kind,
/// every tuple one element longer and one shorter, every tag swapped for an
/// unknown one and dropped.
std::vector<Variant> variants(const Value& l) {
  std::vector<Variant> out;
  switch (l.kind()) {
    case Value::Kind::Int:
      out.push_back({I(l.as_int() - 1), l.as_int() == 0});
      out.push_back({I(l.as_int() + 1), false});
      out.push_back({I(-1), true});
      out.push_back({Value::real(0.5), true});
      break;
    case Value::Kind::Real:
      out.push_back({Value::real(l.as_real() / 2), false});
      out.push_back({I(0), true});
      break;
    case Value::Kind::Tuple: {
      const ValueVec& xs = l.as_tuple();
      ValueVec longer = xs;
      longer.push_back(Value::unit());
      out.push_back({Value::tuple(longer), true});
      if (!xs.empty()) {
        out.push_back({Value::tuple(ValueVec(xs.begin(), xs.end() - 1)), true});
      }
      for (std::size_t i = 0; i < xs.size(); ++i) {
        for (const Variant& k : variants(xs[i])) {
          ValueVec ys = xs;
          ys[i] = k.v;
          out.push_back({Value::tuple(std::move(ys)), k.structural});
        }
      }
      break;
    }
    case Value::Kind::Tagged:
      out.push_back({Value::tagged(3, l.untagged()), true});
      out.push_back({l.untagged(), true});
      for (const Variant& k : variants(l.untagged())) {
        out.push_back({Value::tagged(l.tag(), k.v), k.structural});
      }
      break;
    default:
      break;
  }
  if (!l.is_inf()) out.push_back({Value::inf(), false});
  out.push_back(l.kind() == Value::Kind::Unit ? Variant{I(0), true}
                                              : Variant{Value::unit(), true});
  return out;
}

/// Checks `fam` against its own labels. A finite family must hold every
/// label and, among the neighbours, exactly the labels it enumerates; an
/// infinite one must hold every sampled label and no structural neighbour.
/// When `alg` compiled, every label must compile too.
void expect_contains_matches(const std::string& name, const FunctionFamily& fam,
                             const OrderTransform* alg, Rng& rng) {
  SCOPED_TRACE(name);
  const std::optional<ValueVec> all = fam.labels();
  const ValueVec members = all ? *all : fam.sample_labels(rng, 64);
  ASSERT_FALSE(members.empty());
  const std::set<Value> listed(members.begin(), members.end());
  const compile::CompiledAlgebra ca =
      alg != nullptr ? compile::CompiledAlgebra::compile(*alg)
                     : compile::CompiledAlgebra();
  int rejected = 0;
  for (const Value& l : members) {
    EXPECT_TRUE(fam.contains(l)) << l.to_string();
    if (ca.ok()) {
      EXPECT_TRUE(ca.compile_label(l).ok) << l.to_string();
    }
    for (const Variant& x : variants(l)) {
      const bool in = fam.contains(x.v);
      if (all) {
        EXPECT_EQ(in, listed.count(x.v) == 1)
            << l.to_string() << " -> " << x.v.to_string();
      } else if (x.structural) {
        EXPECT_FALSE(in) << l.to_string() << " -> " << x.v.to_string();
      }
      if (!in) ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

// contains() agrees with labels() (or, for an infinite family, with
// sample_labels()) on every family kind, and every member of a compiled
// family compiles: the invariant that lets a compiled table take any
// checked relabel without leaving the flat kernels.
TEST(FnFamily, ContainsMatchesLabelsAndCompiles) {
  Rng rng(0xFA111);
  const OrderTransform gr = gao_rexford_algebra();
  const std::vector<std::pair<std::string, OrderTransform>> catalog = {
      {"shortest_path", ot_shortest_path(9)},
      {"widest_path", ot_widest_path(9)},
      {"reliability", ot_reliability()},
      {"hop_count", ot_hop_count()},
      {"chain_add", ot_chain_add(6, 1, 3)},
      {"gao_rexford", gr},
      {"gadget", gadget_algebra()},
      {"igp ladder", lex(lex(gr, ot_hop_count()), ot_shortest_path(9))},
      {"lex_omega", lex_omega(gr, ot_hop_count())},
      {"add_top", add_top(ot_hop_count())},
      {"scoped", scoped(ot_hop_count(), ot_shortest_path(9))},
      {"finite scoped", scoped(gr, ot_chain_add(4, 1, 2))},
      {"left", left(ot_shortest_path(9))},
      {"finite left", left(add_top(gr))},
      {"right", right(ot_hop_count())},
      {"direct", direct(ot_shortest_path(9), ot_widest_path(9))},
      {"cayley", cayley(os_shortest_path())},
      {"consts", OrderTransform{"consts", ord_chain(3),
                                fam_const_of("c", {I(0), I(2)}), {}}},
  };
  for (const auto& [name, alg] : catalog) {
    expect_contains_matches(name, *alg.fns, &alg, rng);
  }
  // The families that compile as none of the above kinds: lex_omega over
  // semigroup transforms, min-sets and a finite Cayley family.
  expect_contains_matches(
      "lex_omega st", *lex_omega(st_shortest_path(3), st_shortest_path(2)).fns,
      nullptr, rng);
  expect_contains_matches("min_set",
                          *min_set_transform(ot_chain_add(3, 1, 2)).fns,
                          nullptr, rng);
  expect_contains_matches("finite cayley", *cayley(random_bisemigroup(rng)).fns,
                          nullptr, rng);
  for (int i = 0; i < 500; ++i) {
    const OrderTransform alg = random_order_transform(rng);
    expect_contains_matches("random draw " + std::to_string(i), *alg.fns, &alg,
                            rng);
  }
  // A listed constant the carrier cannot encode is a member without a
  // program, so the compiler refuses the whole family at bind.
  const OrderTransform past{"consts", ord_chain(3),
                            fam_const_of("c", {I(2), I(7)}), {}};
  EXPECT_TRUE(past.fns->contains(I(7)));
  const compile::CompiledAlgebra refused =
      compile::CompiledAlgebra::compile(past);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.fallback(), compile::Fallback::BadLabel);
}

}  // namespace
}  // namespace mrt
