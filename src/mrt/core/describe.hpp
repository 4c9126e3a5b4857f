// Structural self-description of algebra components, for mrt::compile.
//
// Every concrete PreorderSet / FunctionFamily can report the shape it was
// built from as a small descriptor tree. The compiler walks these trees to
// lay out flat weight words and emit fused kernels; anything that reports
// Opaque (the default) compiles to an explicit boxed fallback.
//
// Descriptors are *shape only*: they carry the constructor parameters that
// determine semantics (carrier size, ∞-presence, finite leq/function
// tables, listed constants), not behaviour. The differential property suite
// (tests/test_compile.cpp) pins each descriptor's compiled kernels against
// the boxed virtuals.
#pragma once

#include <cstdint>
#include <vector>

#include "mrt/core/value.hpp"

namespace mrt {

/// Shape of a PreorderSet. `kids` holds two entries for Lex/Direct and two
/// (S, T) for LexOmega; one (S) for AddTop.
struct OrderDesc {
  enum class K {
    Opaque,        // not expressible — compile falls back to boxed
    NatAsc,        // (ℕ[∪{∞}], ≤): smaller preferred; top = ∞ when with_inf
    NatDesc,       // (ℕ[∪{∞}], ≥): larger preferred; top = 0
    UnitRealDesc,  // ([0,1], ≥): larger preferred; top = 0.0
    ChainAsc,      // ({0..n}, ≤)
    ChainDesc,     // ({0..n}, ≥)
    Discrete,      // {0..n-1}, a ≲ b iff a == b
    Trivial,       // {0..n-1}, always ≲ (every element is ⊤)
    SubsetBits,    // subsets of {0..n-1} as bit masks, ordered by ⊆
    Table,         // finite carrier {0..n-1} with explicit leq matrix
    Lex,           // lexicographic product of kids[0], kids[1]
    Direct,        // direct (pointwise) product of kids[0], kids[1]
    AddTop,        // kids[0] ∪ {ω}, ω strictly above everything
    LexOmega,      // ((S∖⊤S)×T) ∪ {ω}  (Szendrei lex-omega)
  };
  K k = K::Opaque;
  bool with_inf = false;                        // NatAsc / NatDesc
  int n = 0;                                    // Chain*/Discrete/Trivial/SubsetBits/Table
  std::vector<std::vector<std::uint8_t>> leq;   // Table: leq[a][b]
  std::vector<OrderDesc> kids;
};

/// Shape of a FunctionFamily. Must align with the OrderDesc of the carrier
/// it acts on (Pair ↔ Lex/Direct, AddTop ↔ AddTop, LexOmega ↔ LexOmega).
struct FamilyDesc {
  enum class K {
    Opaque,
    Id,            // apply(label, a) = a
    Const,         // apply(label, a) = label (Const and ConstOfOrder)
    AddConst,      // ℕ∪{∞} saturating a + label
    MinConst,      // ℕ∪{∞} min(a, label)
    MulConstReal,  // [0,1] a × label
    ChainAdd,      // chain min(n, a + label)
    Table,         // finite fns[label][a] on carrier {0..n-1}
    Pair,          // componentwise (kids[0], kids[1]) on a product carrier
    Union,         // tagged label dispatch to kids[0] / kids[1]
    AddTop,        // fixes ω, applies kids[0] otherwise
    LexOmega,      // ω fixed; kids[0] (a Pair) applied, collapse when S hits ⊤
  };
  K k = K::Opaque;
  int n = 0;                          // ChainAdd cap / Table carrier size
  std::vector<std::vector<int>> fns;  // Table: fns[label][a]
  ValueVec consts;  // Const: the listed values (empty: every carrier element)
  std::vector<FamilyDesc> kids;
};

}  // namespace mrt
