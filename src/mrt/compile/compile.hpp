// mrt::compile — lower an elaborated OrderTransform to flat, allocation-free
// weight kernels.
//
// The boxed interpreter pays for the metalanguage's generality on every
// weight operation: `Value` is a variant whose tuple payloads live behind
// shared_ptr, and every compare/apply walks a virtual-dispatch tree. This
// compiler runs that walk exactly once per algebra. It asks each component
// for its structural shape (PreorderSet::describe() et al.), lays the carrier
// out as a fixed vector of 64-bit words, and emits three fused kernels as
// flat op-programs executed in tight loops — no recursion, no allocation, no
// virtual dispatch:
//
//   compare(a, b)  — four-way Cmp over two word vectors
//   apply(f, w)    — one precompiled per-arc label program, in place
//   is_top(w)      — ⊤-membership (the "unreachable/invalid" test)
//
// plus lossless encode(Value) ⟷ decode(FlatWeight) at the boundaries. The
// encoding is canonical and injective, so word-vector equality coincides
// with boxed Value equality (route-table change detection relies on this).
//
// Anything describe() reports as Opaque — or any shape this compiler does
// not support — yields a CompiledAlgebra with ok() == false and an explicit
// Fallback reason; consumers then stay on the boxed path and mrt::obs counts
// the fallback (compile.fallback.<reason>).
#pragma once

#include <cstdint>
#include <vector>

#include "mrt/compile/flat.hpp"
#include "mrt/compile/simd.hpp"
#include "mrt/core/describe.hpp"
#include "mrt/core/order.hpp"
#include "mrt/core/quadrants.hpp"

namespace mrt {
namespace compile {

/// Why an algebra (or one of its labels) could not be compiled.
enum class Fallback {
  None,           // compiled fine
  OpaqueOrder,    // some PreorderSet reported no shape
  OpaqueFamily,   // some FunctionFamily reported no shape
  ShapeMismatch,  // family tree does not align with the order tree
  TableTooLarge,  // finite table carrier exceeds 64 elements
  TooDeep,        // nesting exceeds the fixed evaluator stack
  TooWide,        // layout exceeds the addressable slot range
  BadLabel,       // a concrete arc label, or a listed constant of the
                  // family, failed to compile
};
const char* fallback_name(Fallback f);

/// One comparison opcode. Begin ops open a lex/direct frame whose matching
/// End sits at index `a`; scalar ops classify one slot.
struct CmpOp {
  enum class K : std::uint8_t {
    Asc,       // numeric uint64 order (∞ = kInf is greatest)
    Desc,      // reversed numeric order (also [0,1] reals via bit patterns)
    Eq,        // discrete: Equiv iff equal, else Incomp
    True,      // trivial: always Equiv
    Subset,    // bitmask ⊆
    Table,     // finite leq matrix in the aux pool
    LexBegin,  // first non-Equiv child decides
    DirBegin,  // conjunction of child directions
    End,
  };
  K k;
  std::uint16_t slot = 0;
  std::uint32_t a = 0;  // Begin: index of matching End; Table: aux offset
  std::uint32_t b = 0;  // Table: carrier size
};

/// One ⊤-membership opcode; a top program is a conjunction (empty = true).
struct TopOp {
  enum class K : std::uint8_t {
    Eq,       // w[slot] == imm
    Never,    // no top exists in this component
    MaskBit,  // bit w[slot] of imm (finite table tops)
  };
  K k;
  std::uint16_t slot = 0;
  std::uint64_t imm = 0;
};

/// One label-application opcode, applied to a weight vector in place.
struct ApplyOp {
  enum class K : std::uint8_t {
    Set,            // w[slot] = imm
    AddSat,         // w[slot] += imm unless already kInf
    MinWord,        // w[slot] = min(w[slot], imm)
    MulReal,        // w[slot] = bits(double(w[slot]) * double(imm))
    ChainAdd,       // w[slot] = min(a, w[slot] + imm)
    Table,          // w[slot] = aux[a + w[slot]]
    SkipIfGuard,    // if w[slot] == 1 skip the next a ops (ω is fixed)
    CollapseIfTop,  // if top-program (a,b) holds: zero imm-packed range,
                    // w[slot] = 1   (lex_omega's collapse onto ω)
  };
  K k;
  std::uint16_t slot = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t imm = 0;
};

/// A per-label apply program (precompiled once per arc). `vec` marks
/// programs made only of lanewise ops (Set/AddSat/MinWord/MulReal/ChainAdd —
/// no per-column control flow), eligible for the SIMD select kernels.
/// `dense` additionally marks exactly one op per slot in slot order
/// 0..words-1 (the shape every lex stack of scalar components emits), which
/// lets the vertical kernel fuse apply and lex fold into one pass.
struct CompiledLabel {
  std::vector<ApplyOp> ops;
  bool ok = false;
  bool vec = false;
  bool dense = false;
};

class CompiledAlgebra {
 public:
  CompiledAlgebra() = default;

  /// Compiles `alg`; inspect ok()/fallback() on the result. Never throws on
  /// unsupported shapes — unsupported means boxed, not broken.
  static CompiledAlgebra compile(const OrderTransform& alg);

  bool ok() const { return fallback_ == Fallback::None; }
  Fallback fallback() const { return fallback_; }

  /// Fixed word count of every encoded carrier element.
  int words() const { return words_; }

  /// Four-way comparison of two flat weights (exactly ord->cmp on the
  /// decoded values).
  Cmp compare(const std::uint64_t* a, const std::uint64_t* b) const;

  /// ⊤-membership (exactly ord->is_top on the decoded value).
  bool is_top(const std::uint64_t* w) const;

  /// Applies a precompiled label program in place (exactly fns->apply).
  void apply(const CompiledLabel& f, std::uint64_t* w) const {
    run_apply(f.ops.data(), f.ops.size(), w);
  }

  /// Fused relax kernel for one arc visit over a block of `ncols`
  /// contiguous weights (each words() long): for every lane set in `need`,
  /// computes f(src_lane) and adopts it into the matching lane of `best`
  /// when the lane is absent from `have` or the candidate compares strictly
  /// Less. Returns the adopted-lane mask. Byte-identical to a per-lane
  /// apply() + compare() + copy loop in ascending lane order, with one
  /// opcode decode and one call for the whole visit. ncols <= 8.
  std::uint8_t select_block(const CompiledLabel& f, const std::uint64_t* src,
                            std::uint64_t* best, int ncols, std::uint8_t need,
                            std::uint8_t have) const;

  /// True when compare() lowers to the flat lex-key chain the SIMD kernels
  /// fold — the precondition for the vertical (slot-major) relax layout.
  bool lex_flat() const { return fast_; }

  /// select_block over slot-major rows: `src` and `best` hold all 8 lanes of
  /// one full block node row word-interleaved (word k of lane l at k*8 + l).
  /// Vec-eligible programs run the dispatched vertical kernel (vector loads
  /// end to end); other programs gather/scatter per lane. Byte-identical to
  /// select_block on the equivalent lane-major rows. Requires lex_flat() and
  /// a full 8-lane block.
  std::uint8_t select_v(const CompiledLabel& f, const std::uint64_t* src,
                        std::uint64_t* best, std::uint8_t need,
                        std::uint8_t have) const;

  /// Fused witness-check kernel: computes f(src) and, when the result
  /// compares Equiv to `cur`, stores it into `cur` (canonicalizing the weight
  /// to the achieved encoding) and returns true; otherwise `cur` is left
  /// untouched. Byte-identical to apply() into a scratch row followed by
  /// compare() and a conditional copy — one call instead of three.
  bool apply_if_equiv(const CompiledLabel& f, const std::uint64_t* src,
                      std::uint64_t* cur) const;

  /// Encodes a carrier element; false if `v` is not representable in this
  /// layout (the caller must then stay boxed).
  bool encode(const Value& v, std::uint64_t* out) const;

  /// Decodes a flat weight back to the boxed carrier element. Lossless:
  /// decode(encode(v)) == v for every carrier element.
  Value decode(const std::uint64_t* w) const;

  /// Compiles one arc label into an apply program; `ok == false` if this
  /// label is outside the family's compilable range.
  CompiledLabel compile_label(const Value& label) const;

 private:
  // One node of the flattened layout tree. Scalars own one word at `slot`;
  // AddTop/LexOmega own a guard word at `slot` ahead of their kids; every
  // node covers the word range [lo, hi).
  struct Node {
    OrderDesc::K k = OrderDesc::K::Opaque;
    std::uint16_t slot = 0;
    std::uint16_t lo = 0, hi = 0;
    bool with_inf = false;
    int n = 0;
    std::uint32_t aux = 0;       // Table: offset of n×n leq entries
    std::uint64_t top_mask = 0;  // Table: bitset of ⊤ elements
    std::uint32_t stop_off = 0, stop_len = 0;  // LexOmega: S-top program
    int kid[2] = {-1, -1};
  };

  // One node of the family tree, aligned against a layout node.
  struct FamNode {
    FamilyDesc::K k = FamilyDesc::K::Opaque;
    int node = -1;
    int n = 0;                // Table carrier size / ChainAdd cap
    std::uint32_t aux = 0;    // Table: base of all label rows
    std::size_t nlabels = 0;  // Table: number of rows
    int kid[2] = {-1, -1};
  };

  // The flat-chain compare step is the same POD the SIMD lex fold consumes.
  using FastCmp = LexKey;

  int build_node(const OrderDesc& d);
  bool align_family(const FamilyDesc& fd, int node, int* out);
  void emit_cmp(int node, int parent);
  void emit_top(int node, std::vector<TopOp>& out) const;
  bool emit_apply(int fnode, const Value& label,
                  std::vector<ApplyOp>& out) const;
  bool encode_node(const Value& v, int node, std::uint64_t* out) const;
  Value decode_node(const std::uint64_t* w, int node) const;
  bool eval_top(const std::uint64_t* w, std::uint32_t off,
                std::uint32_t len) const;
  void run_apply(const ApplyOp* ops, std::size_t n, std::uint64_t* w) const;
  void run_apply_block(const ApplyOp* ops, std::size_t n, std::uint64_t* w,
                       int ncols, std::uint64_t mask) const;

  Fallback fallback_ = Fallback::OpaqueOrder;
  int words_ = 0;
  int root_ = -1;
  int fam_root_ = -1;
  std::vector<Node> nodes_;
  std::vector<FamNode> fnodes_;
  std::vector<CmpOp> cmp_ops_;
  std::vector<TopOp> top_ops_;      // shared pool; root program first
  std::uint32_t root_top_len_ = 0;  // root program = top_ops_[0, len)
  std::vector<std::uint64_t> aux_;  // leq matrices + table-family rows
  bool fast_ = false;
  // fast_ with the chain covering every word slot: Equiv coincides with
  // byte equality, so witness checks can skip the canonicalizing store.
  bool fast_full_ = false;
  std::vector<FastCmp> fast_cmp_;
  // ISA-dispatched vertical kernel, resolved once at compile() so the
  // per-arc-visit hot path skips the dispatcher accessor.
  simd::SelectVFn selv_ = nullptr;
  // fast_ chain where key ki compares slot ki ascending coverage — the
  // select_v fused-pass precondition (paired with CompiledLabel::dense).
  bool keys_asc_ = false;
};

}  // namespace compile
}  // namespace mrt
