// Base semigroup laws: each hand-written base algebra is corroborated by the
// checker, and identities/absorbers are verified explicitly.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "mrt/core/bases.hpp"
#include "mrt/core/checker.hpp"

namespace mrt {
namespace {

using mrt::testing::I;

TEST(SgMin, BasicOps) {
  auto s = sg_min();
  EXPECT_EQ(s->op(I(3), I(5)), I(3));
  EXPECT_EQ(s->op(Value::inf(), I(5)), I(5));
  EXPECT_EQ(s->op(Value::inf(), Value::inf()), Value::inf());
  EXPECT_EQ(*s->identity(), Value::inf());
  EXPECT_EQ(*s->absorber(), I(0));
}

TEST(SgMin, PlainNatHasNoIdentity) {
  auto s = sg_min(false);
  EXPECT_FALSE(s->identity().has_value());
  EXPECT_FALSE(s->contains(Value::inf()));
  EXPECT_TRUE(s->contains(I(0)));
}

TEST(SgPlus, SaturatesAtInf) {
  auto s = sg_plus();
  EXPECT_EQ(s->op(I(3), I(5)), I(8));
  EXPECT_EQ(s->op(Value::inf(), I(5)), Value::inf());
  EXPECT_EQ(*s->identity(), I(0));
  EXPECT_EQ(*s->absorber(), Value::inf());
}

TEST(SgPlus, PlainNatHasNoAbsorber) {
  EXPECT_FALSE(sg_plus(false)->absorber().has_value());
}

TEST(SgMax, Ops) {
  auto s = sg_max();
  EXPECT_EQ(s->op(I(3), I(5)), I(5));
  EXPECT_EQ(s->op(Value::inf(), I(5)), Value::inf());
  EXPECT_EQ(*s->identity(), I(0));
}

TEST(SgTimesReal, Ops) {
  auto s = sg_times_real();
  EXPECT_EQ(s->op(Value::real(0.5), Value::real(0.5)), Value::real(0.25));
  EXPECT_EQ(*s->identity(), Value::real(1.0));
  EXPECT_EQ(*s->absorber(), Value::real(0.0));
}

TEST(SgChainPlus, SaturatesAtBound) {
  auto s = sg_chain_plus(5);
  EXPECT_EQ(s->op(I(3), I(4)), I(5));
  EXPECT_EQ(s->op(I(1), I(2)), I(3));
  EXPECT_EQ(*s->identity(), I(0));
  EXPECT_EQ(*s->absorber(), I(5));
  EXPECT_EQ(s->enumerate()->size(), 6u);
}

TEST(SgUnionBits, MonoidStructure) {
  auto s = sg_union_bits(3);
  EXPECT_EQ(s->op(I(0b101), I(0b011)), I(0b111));
  EXPECT_EQ(*s->identity(), I(0));
  EXPECT_EQ(*s->absorber(), I(0b111));
  EXPECT_EQ(s->enumerate()->size(), 8u);
}

TEST(SgTable, IdentityAndAbsorberDiscovery) {
  // {0,1} with op = min: identity 1, absorber 0.
  auto s = sg_table("min2", {{0, 0}, {0, 1}});
  EXPECT_EQ(*s->identity(), I(1));
  EXPECT_EQ(*s->absorber(), I(0));
  // Right projection has neither.
  auto r = sg_right_proj(3);
  EXPECT_FALSE(r->identity().has_value());
  EXPECT_FALSE(r->absorber().has_value());
}

TEST(SgTable, RejectsMalformedTables) {
  EXPECT_THROW(sg_table("bad", {{0, 1}}), std::logic_error);        // ragged
  EXPECT_THROW(sg_table("bad", {{0, 2}, {0, 1}}), std::logic_error);  // range
}

// --- checker corroboration of the semigroup-law axioms --------------------

struct SgLawCase {
  const char* name;
  SemigroupPtr sg;
  Tri assoc, comm, idem, selective;
};

// Print the case by name: gtest's default byte dump would embed the name
// and algebra pointers, so test names would change with every run.
void PrintTo(const SgLawCase& c, std::ostream* os) { *os << c.name; }

class SemigroupLaws : public ::testing::TestWithParam<SgLawCase> {};

TEST_P(SemigroupLaws, CheckerAgrees) {
  const auto& c = GetParam();
  Checker chk;
  EXPECT_NE(chk.semigroup_prop(*c.sg, Prop::Assoc).verdict,
            tri_not(c.assoc))
      << c.name << " assoc";
  EXPECT_NE(chk.semigroup_prop(*c.sg, Prop::Comm).verdict, tri_not(c.comm))
      << c.name << " comm";
  EXPECT_NE(chk.semigroup_prop(*c.sg, Prop::Idem).verdict, tri_not(c.idem))
      << c.name << " idem";
  EXPECT_NE(chk.semigroup_prop(*c.sg, Prop::Selective).verdict,
            tri_not(c.selective))
      << c.name << " selective";
}

INSTANTIATE_TEST_SUITE_P(
    Bases, SemigroupLaws,
    ::testing::Values(
        SgLawCase{"min", sg_min(), Tri::True, Tri::True, Tri::True, Tri::True},
        SgLawCase{"max", sg_max(), Tri::True, Tri::True, Tri::True, Tri::True},
        SgLawCase{"plus", sg_plus(), Tri::True, Tri::True, Tri::False,
                  Tri::False},
        SgLawCase{"times_real", sg_times_real(), Tri::True, Tri::True,
                  Tri::False, Tri::False},
        SgLawCase{"chain_min", sg_chain_min(4), Tri::True, Tri::True,
                  Tri::True, Tri::True},
        SgLawCase{"chain_plus", sg_chain_plus(4), Tri::True, Tri::True,
                  Tri::False, Tri::False},
        SgLawCase{"plus_mod", sg_plus_mod(4), Tri::True, Tri::True,
                  Tri::False, Tri::False},
        SgLawCase{"left_proj", sg_left_proj(3), Tri::True, Tri::False,
                  Tri::True, Tri::True},
        SgLawCase{"union_bits", sg_union_bits(2), Tri::True, Tri::True,
                  Tri::True, Tri::False},
        SgLawCase{"inter_bits", sg_inter_bits(2), Tri::True, Tri::True,
                  Tri::True, Tri::False}),
    [](const auto& info) { return info.param.name; });

TEST(Fold, FoldsLeft) {
  auto s = sg_plus();
  EXPECT_EQ(fold(*s, {I(1), I(2), I(3)}), I(6));
  EXPECT_EQ(fold(*s, {I(7)}), I(7));
  EXPECT_THROW(fold(*s, {}), std::logic_error);
}

}  // namespace
}  // namespace mrt
