// Dynamic function families F ⊆ S → S: the "functional" weight-computation
// building block of the quadrants model (paper Fig. 1).
//
// Each function is indexed by an opaque label Value (the paper's (L, •)
// indexing of Sobrinho algebras); arcs of a network carry labels, and the
// weight of a path is the composed application of its arcs' functions.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "mrt/core/describe.hpp"
#include "mrt/core/value.hpp"
#include "mrt/support/rng.hpp"

namespace mrt {

class FunctionFamily {
 public:
  virtual ~FunctionFamily() = default;

  virtual std::string name() const = 0;

  /// Applies the function indexed by `label` to carrier element `a`.
  virtual Value apply(const Value& label, const Value& a) const = 0;

  /// True iff `label` indexes a function of this family: the family-side
  /// twin of PreorderSet::contains. Answers from the family's range or
  /// list, never by enumerating labels(), so a relabel check stays cheap.
  virtual bool contains(const Value& label) const = 0;

  /// The label (function index) set, when finite.
  virtual std::optional<ValueVec> labels() const { return std::nullopt; }

  /// `n` labels for randomized checking; default draws from `labels()`.
  virtual ValueVec sample_labels(Rng& rng, int n) const;

  /// Structural shape for mrt::compile; Opaque (the default) means "not
  /// compilable" and routes consumers to the boxed interpreter.
  virtual FamilyDesc describe() const { return {}; }
};

using FnFamilyPtr = std::shared_ptr<const FunctionFamily>;

}  // namespace mrt
