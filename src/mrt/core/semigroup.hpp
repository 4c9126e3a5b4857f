// Dynamic semigroups (S, ⊕): the "algebraic" weight-summarization /
// weight-computation building block of the quadrants model (paper Fig. 1).
//
// A Semigroup exposes its binary operation plus enough structure for the
// rest of the system to *measure* it: carrier membership, optional finite
// enumeration (the finite-model checker's raw material), and random sampling
// for infinite carriers.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "mrt/core/value.hpp"
#include "mrt/support/rng.hpp"

namespace mrt {

class Semigroup {
 public:
  virtual ~Semigroup() = default;

  virtual std::string name() const = 0;

  /// Carrier membership.
  virtual bool contains(const Value& v) const = 0;

  /// The binary operation. Precondition: both arguments are in the carrier.
  virtual Value op(const Value& a, const Value& b) const = 0;

  /// Identity element α (α ⊕ s = s = s ⊕ α), if one exists.
  virtual std::optional<Value> identity() const { return std::nullopt; }

  /// Absorbing element ω (ω ⊕ s = ω = s ⊕ ω), if one exists.
  virtual std::optional<Value> absorber() const { return std::nullopt; }

  /// The whole carrier, when finite and small enough to materialize.
  virtual std::optional<ValueVec> enumerate() const { return std::nullopt; }

  /// `n` carrier elements for randomized checking. The default draws from
  /// `enumerate()`; infinite carriers must override.
  virtual ValueVec sample(Rng& rng, int n) const;
};

using SemigroupPtr = std::shared_ptr<const Semigroup>;

/// True if `v` acts as an identity on every enumerated element.
bool acts_as_identity(const Semigroup& s, const Value& v);

/// Folds ⊕ over a non-empty range.
Value fold(const Semigroup& s, const ValueVec& xs);

}  // namespace mrt
