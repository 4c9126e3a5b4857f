#include "mrt/compile/compile.hpp"

#include <cstring>

#include "mrt/obs/metrics.hpp"
#include "mrt/support/require.hpp"

namespace mrt {
namespace compile {

namespace {

// The cmp evaluator's fixed frame stack; nesting beyond this compiles to a
// TooDeep fallback (real algebras stack a handful of combinators).
constexpr int kMaxCmpDepth = 30;

std::uint64_t double_bits(double d) {
  if (d == 0.0) d = 0.0;  // canonicalize -0.0 so word equality is exact
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

double bits_double(std::uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

}  // namespace

const char* fallback_name(Fallback f) {
  switch (f) {
    case Fallback::None: return "none";
    case Fallback::OpaqueOrder: return "opaque_order";
    case Fallback::OpaqueFamily: return "opaque_family";
    case Fallback::ShapeMismatch: return "shape_mismatch";
    case Fallback::TableTooLarge: return "table_too_large";
    case Fallback::TooDeep: return "too_deep";
    case Fallback::TooWide: return "too_wide";
    case Fallback::BadLabel: return "bad_label";
  }
  return "unknown";
}

// --- layout ----------------------------------------------------------------

int CompiledAlgebra::build_node(const OrderDesc& d) {
  using K = OrderDesc::K;
  const int idx = static_cast<int>(nodes_.size());
  nodes_.push_back({});
  Node nd;
  nd.k = d.k;
  nd.lo = static_cast<std::uint16_t>(words_);
  switch (d.k) {
    case K::Opaque:
      fallback_ = Fallback::OpaqueOrder;
      return -1;
    case K::NatAsc:
    case K::NatDesc:
      nd.slot = static_cast<std::uint16_t>(words_++);
      nd.with_inf = d.with_inf;
      break;
    case K::UnitRealDesc:
      nd.slot = static_cast<std::uint16_t>(words_++);
      break;
    case K::ChainAsc:
    case K::ChainDesc:
    case K::Discrete:
    case K::Trivial:
    case K::SubsetBits:
      nd.slot = static_cast<std::uint16_t>(words_++);
      nd.n = d.n;
      break;
    case K::Table: {
      // ⊤-membership is a 64-bit mask, so finite tables cap at 64 elements.
      if (d.n < 1 || d.n > 64 ||
          d.leq.size() != static_cast<std::size_t>(d.n)) {
        fallback_ = Fallback::TableTooLarge;
        return -1;
      }
      nd.slot = static_cast<std::uint16_t>(words_++);
      nd.n = d.n;
      nd.aux = static_cast<std::uint32_t>(aux_.size());
      for (const auto& row : d.leq) {
        if (row.size() != static_cast<std::size_t>(d.n)) {
          fallback_ = Fallback::TableTooLarge;
          return -1;
        }
        for (std::uint8_t v : row) aux_.push_back(v != 0 ? 1 : 0);
      }
      for (int t = 0; t < d.n; ++t) {
        bool top = true;
        for (int j = 0; j < d.n; ++j) top = top && d.leq[static_cast<std::size_t>(j)][static_cast<std::size_t>(t)] != 0;
        if (top) nd.top_mask |= std::uint64_t{1} << t;
      }
      break;
    }
    case K::Lex:
    case K::Direct:
    case K::LexOmega: {
      if (d.kids.size() != 2) {
        fallback_ = Fallback::ShapeMismatch;
        return -1;
      }
      if (d.k == K::LexOmega) nd.slot = static_cast<std::uint16_t>(words_++);
      nodes_[static_cast<std::size_t>(idx)] = nd;
      const int k0 = build_node(d.kids[0]);
      if (k0 < 0) return -1;
      const int k1 = build_node(d.kids[1]);
      if (k1 < 0) return -1;
      nd.kid[0] = k0;
      nd.kid[1] = k1;
      break;
    }
    case K::AddTop: {
      if (d.kids.size() != 1) {
        fallback_ = Fallback::ShapeMismatch;
        return -1;
      }
      nd.slot = static_cast<std::uint16_t>(words_++);
      nodes_[static_cast<std::size_t>(idx)] = nd;
      const int k0 = build_node(d.kids[0]);
      if (k0 < 0) return -1;
      nd.kid[0] = k0;
      break;
    }
  }
  if (words_ > 0xFFFF) {
    fallback_ = Fallback::TooWide;
    return -1;
  }
  nd.hi = static_cast<std::uint16_t>(words_);
  nodes_[static_cast<std::size_t>(idx)] = nd;
  return idx;
}

// --- compare program -------------------------------------------------------

void CompiledAlgebra::emit_cmp(int node, int parent) {
  using K = OrderDesc::K;
  const Node nd = nodes_[static_cast<std::size_t>(node)];
  auto scalar = [&](CmpOp::K k) {
    CmpOp op;
    op.k = k;
    op.slot = nd.slot;
    cmp_ops_.push_back(op);
  };
  switch (nd.k) {
    case K::NatAsc:
    case K::ChainAsc:
      scalar(CmpOp::K::Asc);
      break;
    case K::NatDesc:
    case K::ChainDesc:
    case K::UnitRealDesc:  // non-negative doubles order like their bits
      scalar(CmpOp::K::Desc);
      break;
    case K::Discrete:
      scalar(CmpOp::K::Eq);
      break;
    case K::Trivial:
      scalar(CmpOp::K::True);
      break;
    case K::SubsetBits:
      scalar(CmpOp::K::Subset);
      break;
    case K::Table: {
      CmpOp op;
      op.k = CmpOp::K::Table;
      op.slot = nd.slot;
      op.a = nd.aux;
      op.b = static_cast<std::uint32_t>(nd.n);
      cmp_ops_.push_back(op);
      break;
    }
    // The ω guard of add_top / lex_omega behaves exactly like an ascending
    // scalar ahead of the inner components (ω strictly above everything,
    // inner words canonically zero under ω), so all three compile to lex
    // frames; nested lex flattens into the enclosing frame (first-diff is
    // associative), which is what makes the fast path cover deep stacks.
    case K::Lex:
    case K::AddTop:
    case K::LexOmega: {
      const bool wrap = parent != 1;
      const std::size_t begin = cmp_ops_.size();
      if (wrap) {
        CmpOp op;
        op.k = CmpOp::K::LexBegin;
        cmp_ops_.push_back(op);
      }
      if (nd.k != K::Lex) {
        CmpOp guard;
        guard.k = CmpOp::K::Asc;
        guard.slot = nd.slot;
        cmp_ops_.push_back(guard);
      }
      emit_cmp(nd.kid[0], 1);
      if (nd.kid[1] >= 0) emit_cmp(nd.kid[1], 1);
      if (wrap) {
        CmpOp end;
        end.k = CmpOp::K::End;
        cmp_ops_[begin].a = static_cast<std::uint32_t>(cmp_ops_.size());
        cmp_ops_.push_back(end);
      }
      break;
    }
    case K::Direct: {
      const bool wrap = parent != 2;
      const std::size_t begin = cmp_ops_.size();
      if (wrap) {
        CmpOp op;
        op.k = CmpOp::K::DirBegin;
        cmp_ops_.push_back(op);
      }
      emit_cmp(nd.kid[0], 2);
      emit_cmp(nd.kid[1], 2);
      if (wrap) {
        CmpOp end;
        end.k = CmpOp::K::End;
        cmp_ops_[begin].a = static_cast<std::uint32_t>(cmp_ops_.size());
        cmp_ops_.push_back(end);
      }
      break;
    }
    case K::Opaque:
      break;  // unreachable: build_node rejects Opaque
  }
}

Cmp CompiledAlgebra::compare(const std::uint64_t* a,
                             const std::uint64_t* b) const {
  if (fast_) {
    for (const FastCmp& f : fast_cmp_) {
      const std::uint64_t x = a[f.slot];
      const std::uint64_t y = b[f.slot];
      if (x != y) return ((x < y) != (f.desc != 0)) ? Cmp::Less : Cmp::Greater;
    }
    return Cmp::Equiv;
  }
  struct Frame {
    std::uint8_t dir, le, ge;
    std::uint32_t end;
  };
  Frame st[kMaxCmpDepth + 2];
  int sp = 0;
  const CmpOp* ops = cmp_ops_.data();
  std::size_t ip = 0;
  Cmp r = Cmp::Equiv;
  bool have = false;
  for (;;) {
    if (!have) {
      const CmpOp& op = ops[ip];
      switch (op.k) {
        case CmpOp::K::LexBegin:
          st[sp++] = Frame{0, 1, 1, op.a};
          ++ip;
          continue;
        case CmpOp::K::DirBegin:
          st[sp++] = Frame{1, 1, 1, op.a};
          ++ip;
          continue;
        case CmpOp::K::End: {
          const Frame f = st[--sp];
          r = !f.dir ? Cmp::Equiv
                     : (f.le ? (f.ge ? Cmp::Equiv : Cmp::Less)
                             : (f.ge ? Cmp::Greater : Cmp::Incomp));
          ++ip;
          break;
        }
        case CmpOp::K::Asc: {
          const std::uint64_t x = a[op.slot];
          const std::uint64_t y = b[op.slot];
          r = x == y ? Cmp::Equiv : (x < y ? Cmp::Less : Cmp::Greater);
          ++ip;
          break;
        }
        case CmpOp::K::Desc: {
          const std::uint64_t x = a[op.slot];
          const std::uint64_t y = b[op.slot];
          r = x == y ? Cmp::Equiv : (x < y ? Cmp::Greater : Cmp::Less);
          ++ip;
          break;
        }
        case CmpOp::K::Eq:
          r = a[op.slot] == b[op.slot] ? Cmp::Equiv : Cmp::Incomp;
          ++ip;
          break;
        case CmpOp::K::True:
          r = Cmp::Equiv;
          ++ip;
          break;
        case CmpOp::K::Subset: {
          const std::uint64_t x = a[op.slot];
          const std::uint64_t y = b[op.slot];
          if (x == y) {
            r = Cmp::Equiv;
          } else if ((x & y) == x) {
            r = Cmp::Less;
          } else if ((x & y) == y) {
            r = Cmp::Greater;
          } else {
            r = Cmp::Incomp;
          }
          ++ip;
          break;
        }
        case CmpOp::K::Table: {
          const std::uint64_t x = a[op.slot];
          const std::uint64_t y = b[op.slot];
          const std::uint64_t* m = aux_.data() + op.a;
          const bool le = m[x * op.b + y] != 0;
          const bool ge = m[y * op.b + x] != 0;
          r = le ? (ge ? Cmp::Equiv : Cmp::Less)
                 : (ge ? Cmp::Greater : Cmp::Incomp);
          ++ip;
          break;
        }
      }
      have = true;
    }
    // Deliver r into the enclosing frame (or out of the program).
    if (sp == 0) return r;
    Frame& f = st[sp - 1];
    if (!f.dir) {  // lex: first non-Equiv child decides
      if (r == Cmp::Equiv) {
        have = false;
        continue;
      }
      ip = f.end + 1;
      --sp;  // r propagates to the parent frame
    } else {  // direct: conjunction of directions, Incomp exits early
      f.le = f.le && (r == Cmp::Less || r == Cmp::Equiv);
      f.ge = f.ge && (r == Cmp::Greater || r == Cmp::Equiv);
      if (!f.le && !f.ge) {
        r = Cmp::Incomp;
        ip = f.end + 1;
        --sp;
      } else {
        have = false;
      }
    }
  }
}

// --- top programs ----------------------------------------------------------

void CompiledAlgebra::emit_top(int node, std::vector<TopOp>& out) const {
  using K = OrderDesc::K;
  const Node& nd = nodes_[static_cast<std::size_t>(node)];
  auto eq = [&](std::uint64_t imm) {
    TopOp op;
    op.k = TopOp::K::Eq;
    op.slot = nd.slot;
    op.imm = imm;
    out.push_back(op);
  };
  switch (nd.k) {
    case K::NatAsc:
      if (nd.with_inf) {
        eq(kInf);
      } else {
        out.push_back(TopOp{TopOp::K::Never, 0, 0});  // plain ℕ is unbounded
      }
      break;
    case K::NatDesc:
      eq(0);
      break;
    case K::UnitRealDesc:
      eq(0);  // bits(0.0) == 0
      break;
    case K::ChainAsc:
      eq(static_cast<std::uint64_t>(nd.n));
      break;
    case K::ChainDesc:
      eq(0);
      break;
    case K::Discrete:
      if (nd.n == 1) {
        eq(0);
      } else {
        out.push_back(TopOp{TopOp::K::Never, 0, 0});
      }
      break;
    case K::Trivial:
      break;  // every element is ⊤: empty conjunction
    case K::SubsetBits:
      eq((std::uint64_t{1} << nd.n) - 1);
      break;
    case K::Table: {
      TopOp op;
      op.k = TopOp::K::MaskBit;
      op.slot = nd.slot;
      op.imm = nd.top_mask;
      out.push_back(op);
      break;
    }
    case K::Lex:
    case K::Direct:
      emit_top(nd.kid[0], out);
      emit_top(nd.kid[1], out);
      break;
    case K::AddTop:
    case K::LexOmega:
      eq(1);  // ω is the unique top; inner tops are no longer maximal
      break;
    case K::Opaque:
      break;
  }
}

bool CompiledAlgebra::eval_top(const std::uint64_t* w, std::uint32_t off,
                               std::uint32_t len) const {
  const TopOp* ops = top_ops_.data() + off;
  for (std::uint32_t i = 0; i < len; ++i) {
    const TopOp& op = ops[i];
    switch (op.k) {
      case TopOp::K::Eq:
        if (w[op.slot] != op.imm) return false;
        break;
      case TopOp::K::Never:
        return false;
      case TopOp::K::MaskBit:
        if (((op.imm >> w[op.slot]) & 1) == 0) return false;
        break;
    }
  }
  return true;
}

bool CompiledAlgebra::is_top(const std::uint64_t* w) const {
  return eval_top(w, 0, root_top_len_);
}

// --- family alignment ------------------------------------------------------

bool CompiledAlgebra::align_family(const FamilyDesc& fd, int node, int* out) {
  using FK = FamilyDesc::K;
  using OK = OrderDesc::K;
  const Node nd = nodes_[static_cast<std::size_t>(node)];
  FamNode fn;
  fn.k = fd.k;
  fn.node = node;
  auto mismatch = [&]() {
    fallback_ = Fallback::ShapeMismatch;
    return false;
  };
  switch (fd.k) {
    case FK::Opaque:
      fallback_ = Fallback::OpaqueFamily;
      return false;
    case FK::Id:
      break;
    case FK::Const: {
      // Valid on any node; Const encodes its label per arc. A listed value
      // the carrier cannot encode would be a family member without a
      // program, so such a family does not compile at all.
      std::vector<std::uint64_t> tmp(static_cast<std::size_t>(words_), 0);
      for (const Value& v : fd.consts) {
        if (!encode_node(v, node, tmp.data())) {
          fallback_ = Fallback::BadLabel;
          return false;
        }
      }
      break;
    }
    case FK::AddConst:
    case FK::MinConst:
      if (nd.k != OK::NatAsc && nd.k != OK::NatDesc) return mismatch();
      break;
    case FK::MulConstReal:
      if (nd.k != OK::UnitRealDesc) return mismatch();
      break;
    case FK::ChainAdd:
      if ((nd.k != OK::ChainAsc && nd.k != OK::ChainDesc) || nd.n != fd.n)
        return mismatch();
      fn.n = fd.n;
      break;
    case FK::Table: {
      int carrier = -1;
      switch (nd.k) {
        case OK::ChainAsc:
        case OK::ChainDesc:
          carrier = nd.n + 1;  // chain {0..n} has n+1 elements
          break;
        case OK::Discrete:
        case OK::Trivial:
        case OK::Table:
          carrier = nd.n;
          break;
        default:
          return mismatch();
      }
      if (carrier != fd.n || fd.fns.empty()) return mismatch();
      fn.n = fd.n;
      fn.nlabels = fd.fns.size();
      fn.aux = static_cast<std::uint32_t>(aux_.size());
      for (const auto& row : fd.fns) {
        if (row.size() != static_cast<std::size_t>(fd.n)) return mismatch();
        for (int y : row) {
          if (y < 0 || y >= fd.n) return mismatch();
          aux_.push_back(static_cast<std::uint64_t>(y));
        }
      }
      break;
    }
    case FK::Pair: {
      if ((nd.k != OK::Lex && nd.k != OK::Direct) || fd.kids.size() != 2)
        return mismatch();
      const int idx = static_cast<int>(fnodes_.size());
      fnodes_.push_back(fn);
      int k0 = -1, k1 = -1;
      if (!align_family(fd.kids[0], nd.kid[0], &k0)) return false;
      if (!align_family(fd.kids[1], nd.kid[1], &k1)) return false;
      fnodes_[static_cast<std::size_t>(idx)].kid[0] = k0;
      fnodes_[static_cast<std::size_t>(idx)].kid[1] = k1;
      *out = idx;
      return true;
    }
    case FK::Union: {
      if (fd.kids.size() != 2) return mismatch();
      const int idx = static_cast<int>(fnodes_.size());
      fnodes_.push_back(fn);
      int k0 = -1, k1 = -1;  // both arms act on the same carrier
      if (!align_family(fd.kids[0], node, &k0)) return false;
      if (!align_family(fd.kids[1], node, &k1)) return false;
      fnodes_[static_cast<std::size_t>(idx)].kid[0] = k0;
      fnodes_[static_cast<std::size_t>(idx)].kid[1] = k1;
      *out = idx;
      return true;
    }
    case FK::AddTop: {
      if (nd.k != OK::AddTop || fd.kids.size() != 1) return mismatch();
      const int idx = static_cast<int>(fnodes_.size());
      fnodes_.push_back(fn);
      int k0 = -1;
      if (!align_family(fd.kids[0], nd.kid[0], &k0)) return false;
      fnodes_[static_cast<std::size_t>(idx)].kid[0] = k0;
      *out = idx;
      return true;
    }
    case FK::LexOmega: {
      if (nd.k != OK::LexOmega || fd.kids.size() != 1) return mismatch();
      const FamilyDesc& pair = fd.kids[0];
      if (pair.k != FK::Pair || pair.kids.size() != 2) return mismatch();
      const int idx = static_cast<int>(fnodes_.size());
      fnodes_.push_back(fn);
      int k0 = -1, k1 = -1;
      if (!align_family(pair.kids[0], nd.kid[0], &k0)) return false;
      if (!align_family(pair.kids[1], nd.kid[1], &k1)) return false;
      fnodes_[static_cast<std::size_t>(idx)].kid[0] = k0;
      fnodes_[static_cast<std::size_t>(idx)].kid[1] = k1;
      *out = idx;
      return true;
    }
  }
  *out = static_cast<int>(fnodes_.size());
  fnodes_.push_back(fn);
  return true;
}

// --- per-label apply programs ----------------------------------------------

bool CompiledAlgebra::emit_apply(int fi, const Value& label,
                                 std::vector<ApplyOp>& out) const {
  using FK = FamilyDesc::K;
  const FamNode& fn = fnodes_[static_cast<std::size_t>(fi)];
  const Node& nd = nodes_[static_cast<std::size_t>(fn.node)];
  auto push = [&](ApplyOp::K k, std::uint16_t slot, std::uint64_t imm,
                  std::uint32_t a = 0, std::uint32_t b = 0) {
    ApplyOp op;
    op.k = k;
    op.slot = slot;
    op.a = a;
    op.b = b;
    op.imm = imm;
    out.push_back(op);
  };
  switch (fn.k) {
    case FK::Id:
      return true;
    case FK::Const: {
      std::vector<std::uint64_t> tmp(static_cast<std::size_t>(words_), 0);
      if (!encode_node(label, fn.node, tmp.data())) return false;
      for (int s = nd.lo; s < nd.hi; ++s)
        push(ApplyOp::K::Set, static_cast<std::uint16_t>(s),
             tmp[static_cast<std::size_t>(s)]);
      return true;
    }
    case FK::AddConst: {
      if (label.is_inf()) {
        push(ApplyOp::K::Set, nd.slot, kInf);  // a + ∞ = ∞
        return true;
      }
      if (!label.is_int() || label.as_int() < 0) return false;
      push(ApplyOp::K::AddSat, nd.slot,
           static_cast<std::uint64_t>(label.as_int()));
      return true;
    }
    case FK::MinConst: {
      if (label.is_inf()) return true;  // min(a, ∞) = a
      if (!label.is_int() || label.as_int() < 0) return false;
      push(ApplyOp::K::MinWord, nd.slot,
           static_cast<std::uint64_t>(label.as_int()));
      return true;
    }
    case FK::MulConstReal: {
      if (label.kind() != Value::Kind::Real) return false;
      const double f = label.as_real();
      if (!(f > 0.0 && f <= 1.0)) return false;
      push(ApplyOp::K::MulReal, nd.slot, double_bits(f));
      return true;
    }
    case FK::ChainAdd: {
      if (!label.is_int() || label.as_int() < 0 || label.as_int() > fn.n)
        return false;
      push(ApplyOp::K::ChainAdd, nd.slot,
           static_cast<std::uint64_t>(label.as_int()),
           static_cast<std::uint32_t>(fn.n));
      return true;
    }
    case FK::Table: {
      if (!label.is_int() || label.as_int() < 0 ||
          static_cast<std::size_t>(label.as_int()) >= fn.nlabels)
        return false;
      push(ApplyOp::K::Table, nd.slot, 0,
           fn.aux + static_cast<std::uint32_t>(label.as_int()) *
                        static_cast<std::uint32_t>(fn.n));
      return true;
    }
    case FK::Pair: {
      if (!label.is_tuple() || label.as_tuple().size() != 2) return false;
      return emit_apply(fn.kid[0], label.first(), out) &&
             emit_apply(fn.kid[1], label.second(), out);
    }
    case FK::Union: {
      if (!label.is_tagged()) return false;
      if (label.tag() == 1) return emit_apply(fn.kid[0], label.untagged(), out);
      if (label.tag() == 2) return emit_apply(fn.kid[1], label.untagged(), out);
      return false;
    }
    case FK::AddTop: {
      std::vector<ApplyOp> inner;
      if (!emit_apply(fn.kid[0], label, inner)) return false;
      if (!inner.empty()) {
        push(ApplyOp::K::SkipIfGuard, nd.slot, 0,
             static_cast<std::uint32_t>(inner.size()));
        out.insert(out.end(), inner.begin(), inner.end());
      }
      return true;
    }
    case FK::LexOmega: {
      if (!label.is_tuple() || label.as_tuple().size() != 2) return false;
      std::vector<ApplyOp> inner;
      if (!emit_apply(fn.kid[0], label.first(), inner)) return false;
      if (!emit_apply(fn.kid[1], label.second(), inner)) return false;
      push(ApplyOp::K::SkipIfGuard, nd.slot, 0,
           static_cast<std::uint32_t>(inner.size()) + 1);
      out.insert(out.end(), inner.begin(), inner.end());
      // After the pair applies, collapse to ω if the S part reached ⊤.
      ApplyOp c;
      c.k = ApplyOp::K::CollapseIfTop;
      c.slot = nd.slot;
      c.a = nd.stop_off;
      c.b = nd.stop_len;
      c.imm = (static_cast<std::uint64_t>(nd.lo + 1) << 16) | nd.hi;
      out.push_back(c);
      return true;
    }
    case FK::Opaque:
      return false;
  }
  return false;
}

CompiledLabel CompiledAlgebra::compile_label(const Value& label) const {
  CompiledLabel cl;
  if (!ok()) return cl;
  cl.ok = emit_apply(fam_root_, label, cl.ops);
  if (!cl.ok) {
    cl.ops.clear();
    return cl;
  }
  // SIMD eligibility: every opcode lanewise arithmetic, no per-column
  // control flow (Table gathers, ω guards, collapses force the scalar
  // kernels — they would need per-lane program counters).
  cl.vec = true;
  for (const ApplyOp& op : cl.ops) {
    switch (op.k) {
      case ApplyOp::K::Set:
      case ApplyOp::K::AddSat:
      case ApplyOp::K::MinWord:
      case ApplyOp::K::MulReal:
      case ApplyOp::K::ChainAdd:
        break;
      default:
        cl.vec = false;
        break;
    }
    if (!cl.vec) break;
  }
  if (cl.vec && cl.ops.size() == static_cast<std::size_t>(words_)) {
    cl.dense = true;
    for (std::size_t k = 0; k < cl.ops.size(); ++k) {
      if (cl.ops[k].slot != k) {
        cl.dense = false;
        break;
      }
    }
  }
  return cl;
}

void CompiledAlgebra::run_apply(const ApplyOp* ops, std::size_t n,
                                std::uint64_t* w) const {
  for (std::size_t ip = 0; ip < n; ++ip) {
    const ApplyOp& op = ops[ip];
    switch (op.k) {
      case ApplyOp::K::Set:
        w[op.slot] = op.imm;
        break;
      case ApplyOp::K::AddSat:
        if (w[op.slot] != kInf) w[op.slot] += op.imm;
        break;
      case ApplyOp::K::MinWord:
        if (op.imm < w[op.slot]) w[op.slot] = op.imm;
        break;
      case ApplyOp::K::MulReal:
        w[op.slot] = double_bits(bits_double(w[op.slot]) * bits_double(op.imm));
        break;
      case ApplyOp::K::ChainAdd: {
        const std::uint64_t s = w[op.slot] + op.imm;
        w[op.slot] = s > op.a ? op.a : s;
        break;
      }
      case ApplyOp::K::Table:
        w[op.slot] = aux_[op.a + w[op.slot]];
        break;
      case ApplyOp::K::SkipIfGuard:
        if (w[op.slot] == 1) ip += op.a;
        break;
      case ApplyOp::K::CollapseIfTop:
        if (eval_top(w, op.a, op.b)) {
          const int lo = static_cast<int>((op.imm >> 16) & 0xFFFF);
          const int hi = static_cast<int>(op.imm & 0xFFFF);
          for (int s = lo; s < hi; ++s) w[s] = 0;
          w[op.slot] = 1;
        }
        break;
    }
  }
}

void CompiledAlgebra::run_apply_block(const ApplyOp* ops, std::size_t n,
                                      std::uint64_t* w, int ncols,
                                      std::uint64_t mask) const {
  MRT_REQUIRE(ncols >= 1 && ncols <= 64);
  const std::size_t stride = static_cast<std::size_t>(words_);
  // SkipIfGuard is per-column control flow: a column whose ω guard fired sits
  // out the next op.a opcodes while its block-mates keep executing, so each
  // column carries its own countdown instead of the scalar path's ip bump.
  // Columns outside `mask` are skipped entirely (their words are neither
  // read nor written), so a sparse visit pays only for the lanes it needs.
  std::uint32_t skip[64];
  for (int c = 0; c < ncols; ++c) skip[c] = 0;
  for (std::size_t ip = 0; ip < n; ++ip) {
    const ApplyOp& op = ops[ip];
    for (int c = 0; c < ncols; ++c) {
      if (((mask >> c) & 1u) == 0) continue;
      if (skip[c] > 0) {
        --skip[c];
        continue;
      }
      std::uint64_t* wc = w + static_cast<std::size_t>(c) * stride;
      switch (op.k) {
        case ApplyOp::K::Set:
          wc[op.slot] = op.imm;
          break;
        case ApplyOp::K::AddSat:
          if (wc[op.slot] != kInf) wc[op.slot] += op.imm;
          break;
        case ApplyOp::K::MinWord:
          if (op.imm < wc[op.slot]) wc[op.slot] = op.imm;
          break;
        case ApplyOp::K::MulReal:
          wc[op.slot] =
              double_bits(bits_double(wc[op.slot]) * bits_double(op.imm));
          break;
        case ApplyOp::K::ChainAdd: {
          const std::uint64_t s = wc[op.slot] + op.imm;
          wc[op.slot] = s > op.a ? op.a : s;
          break;
        }
        case ApplyOp::K::Table:
          wc[op.slot] = aux_[op.a + wc[op.slot]];
          break;
        case ApplyOp::K::SkipIfGuard:
          if (wc[op.slot] == 1) skip[c] = op.a;
          break;
        case ApplyOp::K::CollapseIfTop:
          if (eval_top(wc, op.a, op.b)) {
            const int lo = static_cast<int>((op.imm >> 16) & 0xFFFF);
            const int hi = static_cast<int>(op.imm & 0xFFFF);
            for (int s = lo; s < hi; ++s) wc[s] = 0;
            wc[op.slot] = 1;
          }
          break;
      }
    }
  }
}

namespace {
inline int lane_of(unsigned m) {
  int l = 0;
  while ((m & 1u) == 0) {
    m >>= 1;
    ++l;
  }
  return l;
}
}  // namespace

std::uint8_t CompiledAlgebra::select_block(const CompiledLabel& f,
                                           const std::uint64_t* src,
                                           std::uint64_t* best, int ncols,
                                           std::uint8_t need,
                                           std::uint8_t have) const {
  MRT_REQUIRE(ncols >= 1 && ncols <= 8);
  if (words_ == 1) {
    // Vertical-lane kernel for dense visits of vec-eligible programs; the
    // threshold keeps sparse visits on the scalar path, where per-lane
    // dispatch is cheaper than padding and blending 8 lanes. Both sides of
    // the threshold produce identical bytes, so it tunes speed only.
    if (fast_ && f.vec && simd::enabled() && __builtin_popcount(need) >= 3) {
      return simd::select_w1()(f.ops.data(), f.ops.size(), src, best, ncols,
                               need, have, fast_cmp_[0]);
    }
    // Single-word carriers — the common batched case. Lanes are one word
    // apart; each needed lane runs the scalar opcode path on a stack word.
    // (Measured: for the short label programs that compile to one or two
    // opcodes, per-lane scalar dispatch beats the blocked kernel's per-column
    // mask/skip branches even on dense visits.)
    std::uint8_t adopted = 0;
    for (unsigned m = need; m != 0; m &= m - 1) {
      const int l = lane_of(m);
      std::uint64_t cand = src[l];
      run_apply(f.ops.data(), f.ops.size(), &cand);
      if ((have & (1u << l)) == 0 || compare(&cand, &best[l]) == Cmp::Less) {
        best[l] = cand;
        adopted |= static_cast<std::uint8_t>(1u << l);
      }
    }
    return adopted;
  }
  const std::size_t stride = static_cast<std::size_t>(words_);
  const std::size_t wbytes = stride * sizeof(std::uint64_t);
  // One scratch row per thread: wide enough for the few-words carriers the
  // batched tables actually compile; anything wider spills to the heap once.
  constexpr std::size_t kStack = 64;
  std::uint64_t stackbuf[kStack];
  std::uint64_t* cand = stackbuf;
  thread_local std::vector<std::uint64_t> spill;
  const std::size_t rowlen = stride * static_cast<std::size_t>(ncols);
  if (rowlen > kStack) {
    if (spill.size() < rowlen) spill.resize(rowlen);
    cand = spill.data();
  }
  for (unsigned m = need; m != 0; m &= m - 1) {
    const int l = lane_of(m);
    std::memcpy(cand + static_cast<std::size_t>(l) * stride,
                src + static_cast<std::size_t>(l) * stride, wbytes);
  }
  run_apply_block(f.ops.data(), f.ops.size(), cand, ncols, need);
  std::uint8_t adopted = 0;
  for (unsigned m = need; m != 0; m &= m - 1) {
    const int l = lane_of(m);
    const std::uint64_t* cw = cand + static_cast<std::size_t>(l) * stride;
    std::uint64_t* bw = best + static_cast<std::size_t>(l) * stride;
    if ((have & (1u << l)) == 0 || compare(cw, bw) == Cmp::Less) {
      std::memcpy(bw, cw, wbytes);
      adopted |= static_cast<std::uint8_t>(1u << l);
    }
  }
  return adopted;
}

std::uint8_t CompiledAlgebra::select_v(const CompiledLabel& f,
                                       const std::uint64_t* src,
                                       std::uint64_t* best, std::uint8_t need,
                                       std::uint8_t have) const {
  const std::size_t stride = static_cast<std::size_t>(words_);
  if (f.vec && simd::enabled()) {
    // Candidate scratch rows (stride × 8 lanes). The kernel writes a slot's
    // row before ever reading it back, so growth needs no initialization.
    thread_local std::vector<std::uint64_t> tvec;
    if (tvec.size() < stride * 8) tvec.resize(stride * 8);
    const std::uint32_t flags =
        (f.dense ? simd::kDenseOps : 0) | (keys_asc_ ? simd::kKeysAsc : 0);
    return selv_(f.ops.data(), f.ops.size(), src, best, stride, need, have,
                 fast_cmp_.data(), fast_cmp_.size(), tvec.data(), flags);
  }
  // Scalar fallback inside an otherwise vertical relax (non-vec programs, or
  // the kernels toggled off mid-run): gather the lane from the slot-major
  // rows, run the scalar program, scatter on adoption.
  constexpr std::size_t kStack = 64;
  std::uint64_t cbuf[kStack];
  std::uint64_t bbuf[kStack];
  thread_local std::vector<std::uint64_t> cspill, bspill;
  std::uint64_t* cw = cbuf;
  std::uint64_t* bw = bbuf;
  if (stride > kStack) {
    if (cspill.size() < stride) {
      cspill.resize(stride);
      bspill.resize(stride);
    }
    cw = cspill.data();
    bw = bspill.data();
  }
  std::uint8_t adopted = 0;
  for (unsigned m = need; m != 0; m &= m - 1) {
    const int l = lane_of(m);
    for (std::size_t k = 0; k < stride; ++k) {
      cw[k] = src[k * 8 + static_cast<std::size_t>(l)];
    }
    run_apply(f.ops.data(), f.ops.size(), cw);
    bool adopt = (have & (1u << l)) == 0;
    if (!adopt) {
      for (std::size_t k = 0; k < stride; ++k) {
        bw[k] = best[k * 8 + static_cast<std::size_t>(l)];
      }
      adopt = compare(cw, bw) == Cmp::Less;
    }
    if (adopt) {
      for (std::size_t k = 0; k < stride; ++k) {
        best[k * 8 + static_cast<std::size_t>(l)] = cw[k];
      }
      adopted |= static_cast<std::uint8_t>(1u << l);
    }
  }
  return adopted;
}

bool CompiledAlgebra::apply_if_equiv(const CompiledLabel& f,
                                     const std::uint64_t* src,
                                     std::uint64_t* cur) const {
  if (words_ == 1) {
    std::uint64_t c = *src;
    run_apply(f.ops.data(), f.ops.size(), &c);
    if (compare(&c, cur) != Cmp::Equiv) return false;
    *cur = c;
    return true;
  }
  const std::size_t stride = static_cast<std::size_t>(words_);
  const std::size_t wbytes = stride * sizeof(std::uint64_t);
  constexpr std::size_t kStack = 64;
  std::uint64_t stackbuf[kStack];
  std::uint64_t* c = stackbuf;
  thread_local std::vector<std::uint64_t> spill;
  if (stride > kStack) {
    if (spill.size() < stride) spill.resize(stride);
    c = spill.data();
  }
  std::memcpy(c, src, wbytes);
  run_apply(f.ops.data(), f.ops.size(), c);
  if (fast_full_ && simd::enabled()) {
    // Full-coverage flat chains make Equiv coincide with byte equality, so
    // the canonicalizing store is always a no-op: one vector compare
    // replaces compare + memcpy with identical observable bytes.
    return simd::words_equal(c, cur, stride);
  }
  if (compare(c, cur) != Cmp::Equiv) return false;
  std::memcpy(cur, c, wbytes);
  return true;
}

// --- encode / decode -------------------------------------------------------

bool CompiledAlgebra::encode_node(const Value& v, int ni,
                                  std::uint64_t* out) const {
  using K = OrderDesc::K;
  const Node& nd = nodes_[static_cast<std::size_t>(ni)];
  switch (nd.k) {
    case K::NatAsc:
    case K::NatDesc:
      if (v.is_inf()) {
        if (!nd.with_inf) return false;
        out[nd.slot] = kInf;
        return true;
      }
      if (!v.is_int() || v.as_int() < 0) return false;
      out[nd.slot] = static_cast<std::uint64_t>(v.as_int());
      return true;
    case K::UnitRealDesc: {
      if (v.kind() != Value::Kind::Real) return false;
      const double d = v.as_real();
      if (!(d >= 0.0 && d <= 1.0)) return false;  // rejects NaN too
      out[nd.slot] = double_bits(d);
      return true;
    }
    case K::ChainAsc:
    case K::ChainDesc:
      if (!v.is_int() || v.as_int() < 0 || v.as_int() > nd.n) return false;
      out[nd.slot] = static_cast<std::uint64_t>(v.as_int());
      return true;
    case K::Discrete:
    case K::Trivial:
    case K::Table:
      if (!v.is_int() || v.as_int() < 0 || v.as_int() >= nd.n) return false;
      out[nd.slot] = static_cast<std::uint64_t>(v.as_int());
      return true;
    case K::SubsetBits:
      if (!v.is_int() || v.as_int() < 0 ||
          v.as_int() >= (std::int64_t{1} << nd.n))
        return false;
      out[nd.slot] = static_cast<std::uint64_t>(v.as_int());
      return true;
    case K::Lex:
    case K::Direct:
      if (!v.is_tuple() || v.as_tuple().size() != 2) return false;
      return encode_node(v.first(), nd.kid[0], out) &&
             encode_node(v.second(), nd.kid[1], out);
    case K::AddTop:
      if (v.is_omega()) {
        for (int s = nd.lo; s < nd.hi; ++s) out[s] = 0;
        out[nd.slot] = 1;
        return true;
      }
      out[nd.slot] = 0;
      return encode_node(v, nd.kid[0], out);
    case K::LexOmega:
      if (v.is_omega()) {
        for (int s = nd.lo; s < nd.hi; ++s) out[s] = 0;
        out[nd.slot] = 1;
        return true;
      }
      if (!v.is_tuple() || v.as_tuple().size() != 2) return false;
      out[nd.slot] = 0;
      return encode_node(v.first(), nd.kid[0], out) &&
             encode_node(v.second(), nd.kid[1], out);
    case K::Opaque:
      return false;
  }
  return false;
}

Value CompiledAlgebra::decode_node(const std::uint64_t* w, int ni) const {
  using K = OrderDesc::K;
  const Node& nd = nodes_[static_cast<std::size_t>(ni)];
  switch (nd.k) {
    case K::NatAsc:
    case K::NatDesc:
      if (w[nd.slot] == kInf) return Value::inf();
      return Value::integer(static_cast<std::int64_t>(w[nd.slot]));
    case K::UnitRealDesc:
      return Value::real(bits_double(w[nd.slot]));
    case K::ChainAsc:
    case K::ChainDesc:
    case K::Discrete:
    case K::Trivial:
    case K::Table:
    case K::SubsetBits:
      return Value::integer(static_cast<std::int64_t>(w[nd.slot]));
    case K::Lex:
    case K::Direct:
      return Value::pair(decode_node(w, nd.kid[0]), decode_node(w, nd.kid[1]));
    case K::AddTop:
      if (w[nd.slot] == 1) return Value::omega();
      return decode_node(w, nd.kid[0]);
    case K::LexOmega:
      if (w[nd.slot] == 1) return Value::omega();
      return Value::pair(decode_node(w, nd.kid[0]), decode_node(w, nd.kid[1]));
    case K::Opaque:
      break;
  }
  return Value::unit();
}

bool CompiledAlgebra::encode(const Value& v, std::uint64_t* out) const {
  if (obs::enabled()) {
    static obs::Counter& c = obs::registry().counter("compile.encode_calls");
    c.add(1);
  }
  return encode_node(v, root_, out);
}

Value CompiledAlgebra::decode(const std::uint64_t* w) const {
  if (obs::enabled()) {
    static obs::Counter& c = obs::registry().counter("compile.decode_calls");
    c.add(1);
  }
  return decode_node(w, root_);
}

// --- driver ----------------------------------------------------------------

CompiledAlgebra CompiledAlgebra::compile(const OrderTransform& alg) {
  CompiledAlgebra c;
  c.fallback_ = Fallback::None;
  c.root_ = c.build_node(alg.ord->describe());
  if (c.root_ < 0) return c;

  // Top programs: the root's first, then one per lex_omega S-subtree (the
  // collapse test embedded in apply programs).
  std::vector<TopOp> root_top;
  c.emit_top(c.root_, root_top);
  c.root_top_len_ = static_cast<std::uint32_t>(root_top.size());
  c.top_ops_ = std::move(root_top);
  for (Node& nd : c.nodes_) {
    if (nd.k != OrderDesc::K::LexOmega) continue;
    std::vector<TopOp> stop;
    c.emit_top(nd.kid[0], stop);
    nd.stop_off = static_cast<std::uint32_t>(c.top_ops_.size());
    nd.stop_len = static_cast<std::uint32_t>(stop.size());
    c.top_ops_.insert(c.top_ops_.end(), stop.begin(), stop.end());
  }

  c.emit_cmp(c.root_, 0);
  int depth = 0, max_depth = 0;
  for (const CmpOp& op : c.cmp_ops_) {
    if (op.k == CmpOp::K::LexBegin || op.k == CmpOp::K::DirBegin) {
      max_depth = std::max(max_depth, ++depth);
    } else if (op.k == CmpOp::K::End) {
      --depth;
    }
  }
  if (max_depth > kMaxCmpDepth) {
    c.fallback_ = Fallback::TooDeep;
    return c;
  }

  // Fast path: one flat lex chain of word-comparable scalars (this covers
  // every deep-lex stack of shortest/widest/reliability components).
  c.fast_ = false;
  {
    std::vector<FastCmp> fast;
    bool ok = !c.cmp_ops_.empty();
    const bool wrapped = ok && c.cmp_ops_[0].k == CmpOp::K::LexBegin;
    const std::size_t lo = wrapped ? 1 : 0;
    const std::size_t hi = c.cmp_ops_.size() - (wrapped ? 1 : 0);
    if (wrapped && c.cmp_ops_.back().k != CmpOp::K::End) ok = false;
    if (!wrapped && c.cmp_ops_.size() != 1) ok = false;
    for (std::size_t i = lo; ok && i < hi; ++i) {
      const CmpOp& op = c.cmp_ops_[i];
      if (op.k == CmpOp::K::Asc) {
        fast.push_back(FastCmp{op.slot, 0});
      } else if (op.k == CmpOp::K::Desc) {
        fast.push_back(FastCmp{op.slot, 1});
      } else {
        ok = false;
      }
    }
    if (ok) {
      c.fast_ = true;
      c.fast_cmp_ = std::move(fast);
      c.keys_asc_ = c.fast_cmp_.size() == static_cast<std::size_t>(c.words_);
      for (std::size_t i = 0; c.keys_asc_ && i < c.fast_cmp_.size(); ++i) {
        if (c.fast_cmp_[i].slot != i) c.keys_asc_ = false;
      }
    }
  }
  c.selv_ = simd::select_v();
  // A flat chain always visits each word once (scalars own one slot, guard
  // words compile to Asc entries), but assert coverage explicitly before
  // letting witness checks treat Equiv as byte equality.
  c.fast_full_ =
      c.fast_ && c.fast_cmp_.size() == static_cast<std::size_t>(c.words_);

  int fam_root = -1;
  if (!c.align_family(alg.fns->describe(), c.root_, &fam_root)) {
    if (c.fallback_ == Fallback::None) c.fallback_ = Fallback::ShapeMismatch;
    return c;
  }
  c.fam_root_ = fam_root;
  return c;
}

}  // namespace compile
}  // namespace mrt
