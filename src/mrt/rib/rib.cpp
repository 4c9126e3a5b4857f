#include "mrt/rib/rib.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>
#include <utility>

#include "mrt/compile/simd.hpp"
#include "mrt/dyn/solver.hpp"
#include "mrt/obs/obs.hpp"
#include "mrt/par/par.hpp"
#include "mrt/support/require.hpp"

namespace mrt {
namespace rib {

namespace {

using dyn::DynNet;
using dyn::TopologyDelta;
using obs::EventKind;
using obs::Subsystem;

}  // namespace

// All batched passes below mirror the dyn Bellman engine *per column*: the
// same Gauss–Seidel worklist (frontier sorted ascending each round, tails of
// all in-arcs activated on change, round cap dyn::kMaxRounds), the same
// smallest-arc-id tie break in the candidate scan, the same transitive
// witness invalidation, and the same canonical witness-forest rebuild.
// Columns never read each other's state, so running them in lockstep over a
// shared arc visit changes only the memory traffic — each column's
// trajectory, and therefore its bytes, is exactly the standalone solver's.
//
// A table that does not compile at bind runs that standalone solver itself:
// one reference column, a dyn::Solver(EngineKind::Bellman), per
// destination. The choice holds for the binding's life.
//
// An update rebuilds and diffs only its dirty lanes (rib.hpp). The rule is
// the standalone Bellman engine's, so the skipped rebuilds — and the
// relaxations they would have counted — are the same on both sides.
struct RibSolver::Impl {
  OrderTransform alg;
  const compile::WeightEngine* weng = nullptr;

  DynNet dnet;
  Value origin;
  std::vector<int> dsts;
  bool bound = false;

  compile::CompiledNet cnet;
  bool flat = false;       // batched flat kernels active (fixed at bind)
  std::size_t stride = 0;  // words per weight (flat)
  std::vector<std::uint64_t> origin_w;

  // The reference columns of a table that is not flat, one per destination.
  std::vector<std::unique_ptr<Solver>> refs;

  // Shared alive-mask: one byte per arc id, refreshed once per topology
  // version and read by every column of every block.
  std::vector<std::uint8_t> alive;

  // One destination block: up to kBlockCols columns over shared per-node
  // masks. Flat state is column-major within a node-major row — the words of
  // node v's `cols` columns are contiguous, which is what lets one arc visit
  // stream the whole block through select_block.
  struct Block {
    int base = 0;
    int cols = 0;
    // The block's destination nodes (dest[l] == dsts[base+l], -1 padding).
    // Replaces the former per-node destmask byte array — at all-|V|
    // destinations that array cost n bytes per block (n²/8 total, 12.5 MB at
    // 10k nodes); eight compares per frontier visit recover the same mask.
    int dest[kBlockCols] = {-1, -1, -1, -1, -1, -1, -1, -1};
    std::vector<std::uint64_t> w;        // n * cols * stride (zero-init; rows
                                         // only ever hold valid encodings)
    std::vector<std::uint8_t> present;   // n, bit l = column routed
    std::vector<int> next;               // n * cols witness arcs (-1 = none)
    // The block as last published (its state after the previous solve or
    // update), which an update's dirty lanes are diffed against.
    std::vector<std::uint64_t> pub_w;
    std::vector<std::uint8_t> pub_present;
    std::vector<int> pub_next;
  };
  std::vector<Block> blocks;

  std::uint8_t destmask_of(const Block& blk, int u) const {
    std::uint8_t m = 0;
    for (int l = 0; l < blk.cols; ++l) {
      if (blk.dest[l] == u) m |= static_cast<std::uint8_t>(1u << l);
    }
    return m;
  }

  // Shared per-thread scratch arena: every dense all-|V| temporary the block
  // passes need (frontier masks, invalidation state) lives here once per
  // thread instead of being allocated per block per update.
  // The qmask/inv arrays rely on a consume-what-you-set discipline — every
  // pass that sets bits clears them before returning — so blocks on the
  // same thread reuse them without an O(n) wipe.
  struct Scratch {
    std::vector<std::uint8_t> qmask;    // n; all-zero between uses
    std::vector<std::uint8_t> touched;  // n; wiped per block
    std::vector<std::uint8_t> inv;      // n; all-zero between uses
    std::vector<std::pair<int, std::uint8_t>> stack;
    std::vector<int> killed;  // nodes holding inv bits this pass
    std::vector<int> seeded;  // nodes holding qmask bits this pass
    void ensure(std::size_t n) {
      if (qmask.size() != n) {
        qmask.assign(n, 0);
        inv.assign(n, 0);
      }
    }
  };
  static Scratch& scratch() {
    thread_local Scratch s;
    return s;
  }

  /// Phase-1 output for one block: lane split, warm frontier seeds
  /// (ascending node order), and an estimated relax cost that orders the
  /// phase-2 steal queue. Pure function of (block, delta), so the plan — and
  /// everything derived from it — is thread-count-invariant.
  struct BlockPlan {
    std::uint8_t coldm = 0;
    std::uint8_t warmm = 0;
    std::uint8_t dirty = 0;  // cold, or invalidation cleared a route
    std::uint64_t cost = 0;
    std::vector<std::pair<int, std::uint8_t>> seeds;
  };

  /// Phase-2 output for one block, merged in block order.
  struct BlockOut {
    std::uint64_t relaxations = 0;
    int cold_cols = 0;
    int rebuilt = 0;
    std::vector<RouteDiff> diffs;  // column-then-node order
  };

  std::vector<std::uint8_t> col_conv;
  RibStats stats;
  std::vector<RouteDiff> changes;
  // Reference columns' routings as last published (the boxed diff's base).
  std::vector<Routing> ref_pub;
  std::uint32_t jstream = 0;

  mutable std::vector<Routing> rcache;
  mutable std::vector<std::uint8_t> rvalid;

  Impl(const OrderTransform& a, const compile::WeightEngine* e)
      : alg(a), weng(e) {}

  int columns() const { return static_cast<int>(dsts.size()); }

  void set_alive(int id) {
    alive[static_cast<std::size_t>(id)] = dnet.arc_alive(id) ? 1 : 0;
  }

  std::uint64_t* row(Block& blk, int v) {
    return blk.w.data() +
           static_cast<std::size_t>(v) * static_cast<std::size_t>(blk.cols) *
               stride;
  }

  void clear_route(Block& blk, int v, int l) {
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << l);
    blk.present[static_cast<std::size_t>(v)] &= static_cast<std::uint8_t>(~bit);
    blk.next[static_cast<std::size_t>(v) * static_cast<std::size_t>(blk.cols) +
             static_cast<std::size_t>(l)] = -1;
  }

  void clear_lane(Block& blk, int l) {
    const int n = dnet.num_nodes();
    for (int v = 0; v < n; ++v) clear_route(blk, v, l);
  }

  // --- batched flat relaxation ---------------------------------------------

  /// Reshapes a full flat block between lane-major node rows (the storage
  /// layout everything else reads) and slot-major node rows (word k of lane
  /// l at k*kBlockCols + l — the vertical-lane layout the SIMD select
  /// kernels consume gather-free). Two linear passes, amortized against the
  /// many frontier visits per node a dense relax performs.
  void reshape_block(Block& blk, bool to_slot_major) {
    const int n = dnet.num_nodes();
    const std::size_t rowlen = static_cast<std::size_t>(blk.cols) * stride;
    thread_local std::vector<std::uint64_t> buf;
    if (buf.size() < rowlen) buf.resize(rowlen);
    std::uint64_t* W = blk.w.data();
    for (int u = 0; u < n; ++u) {
      std::uint64_t* row = W + static_cast<std::size_t>(u) * rowlen;
      std::memcpy(buf.data(), row, rowlen * sizeof(std::uint64_t));
      for (int l = 0; l < blk.cols; ++l) {
        for (std::size_t k = 0; k < stride; ++k) {
          const std::size_t lm = static_cast<std::size_t>(l) * stride + k;
          const std::size_t sm =
              k * static_cast<std::size_t>(kBlockCols) +
              static_cast<std::size_t>(l);
          if (to_slot_major) {
            row[sm] = buf[lm];
          } else {
            row[lm] = buf[sm];
          }
        }
      }
    }
  }

  /// One worklist pass over every active lane of `qmask` (a per-node lane
  /// bitmask; qmask[v] != 0 iff v is on the frontier). Consumes qmask,
  /// accumulates per-lane touched bits and the lanes in which it changed a
  /// route (`wrote`), and returns the mask of lanes still active when the
  /// round cap hit (those lanes' state is exactly the standalone solver's
  /// state at its own cap). With `ivec` the block's rows are slot-major (see
  /// reshape_block) and arc visits go through the vertical select kernel;
  /// bytes are identical either way.
  std::uint8_t flat_relax(Block& blk, std::vector<std::uint8_t>& qmask,
                          std::vector<std::uint8_t>& touched,
                          std::uint8_t& wrote, std::uint64_t& relaxations,
                          bool ivec) {
    const int n = dnet.num_nodes();
    const Digraph& g = dnet.graph();
    const CsrAdjacency& out = g.csr_out();
    const CsrAdjacency& in = g.csr_in();
    const compile::CompiledAlgebra& ca = cnet.algebra();
    const int cols = blk.cols;
    const std::size_t rowlen = static_cast<std::size_t>(cols) * stride;
    const std::size_t wbytes = stride * sizeof(std::uint64_t);
    std::uint64_t* W = blk.w.data();
    std::uint8_t* P = blk.present.data();
    int* NX = blk.next.data();
    // Runtime-sized memcmp/memcpy are real libc calls; single-word carriers
    // (the common batched case) get direct word compare/store instead, and
    // multi-word rows go through the dispatched SIMD compare/copy kernels
    // when MRT_SIMD is on (byte-identical either way).
    const bool one_word = stride == 1;
    const bool vec_words = !one_word && compile::simd::enabled();
    auto weq = [&](const std::uint64_t* a, const std::uint64_t* b) {
      if (one_word) return *a == *b;
      return vec_words ? compile::simd::words_equal(a, b, stride)
                       : std::memcmp(a, b, wbytes) == 0;
    };
    auto wcopy = [&](std::uint64_t* d, const std::uint64_t* s) {
      if (one_word) {
        *d = *s;
      } else if (vec_words) {
        compile::simd::words_copy(d, s, stride);
      } else {
        std::memcpy(d, s, wbytes);
      }
    };
    // Lane geometry. Lane-major rows put lane l's words contiguously at
    // l*stride; slot-major rows interleave them kBlockCols apart at offset
    // l. origin_w stays contiguous in both modes, so it gets its own pair.
    const std::size_t lmul = ivec ? 1 : stride;
    const std::size_t wstep = ivec ? static_cast<std::size_t>(kBlockCols) : 1;
    auto lane_eq = [&](const std::uint64_t* a, const std::uint64_t* b) {
      if (!ivec) return weq(a, b);
      for (std::size_t k = 0; k < stride; ++k) {
        if (a[k * wstep] != b[k * wstep]) return false;
      }
      return true;
    };
    auto lane_copy = [&](std::uint64_t* d, const std::uint64_t* s) {
      if (!ivec) {
        wcopy(d, s);
        return;
      }
      for (std::size_t k = 0; k < stride; ++k) d[k * wstep] = s[k * wstep];
    };
    auto lane_eq_origin = [&](const std::uint64_t* a) {
      if (!ivec) return weq(a, origin_w.data());
      for (std::size_t k = 0; k < stride; ++k) {
        if (a[k * wstep] != origin_w[k]) return false;
      }
      return true;
    };
    auto lane_copy_origin = [&](std::uint64_t* d) {
      if (!ivec) {
        wcopy(d, origin_w.data());
        return;
      }
      for (std::size_t k = 0; k < stride; ++k) d[k * wstep] = origin_w[k];
    };

    // Per-thread scratch: relax runs once per block, and blocks on the same
    // thread never nest, so reusing the buffers avoids one malloc/free set
    // per block per update (a measurable slice of the cold solve).
    thread_local std::vector<int> frontier;
    thread_local std::vector<std::uint8_t> cur;
    thread_local std::vector<std::uint64_t> best;
    // The next-round frontier is a node bitset drained in word order: set
    // bits come out ascending, which is exactly the order the per-round
    // std::sort used to impose — the sort (a real slice of dense relax
    // rounds) is gone but the trajectory, and therefore every byte, is
    // unchanged. Bits are cleared as they drain, so the buffer is all-zero
    // between calls and costs one word scan per round.
    thread_local std::vector<std::uint64_t> nextb;
    const std::size_t nwords = (static_cast<std::size_t>(n) + 63) / 64;
    if (nextb.size() < nwords) nextb.assign(nwords, 0);
    frontier.clear();
    for (int v = 0; v < n; ++v) {
      if (qmask[static_cast<std::size_t>(v)] != 0) frontier.push_back(v);
    }
    best.resize(rowlen);
    int best_arc[kBlockCols] = {0};
    std::uint8_t capped = 0;
    int rounds = 0;
    while (!frontier.empty()) {
      if (++rounds > dyn::kMaxRounds) {
        for (int u : frontier) {
          capped |= qmask[static_cast<std::size_t>(u)];
          qmask[static_cast<std::size_t>(u)] = 0;
        }
        break;
      }
      cur.resize(frontier.size());
      for (std::size_t i = 0; i < frontier.size(); ++i) {
        cur[i] = qmask[static_cast<std::size_t>(frontier[i])];
        qmask[static_cast<std::size_t>(frontier[i])] = 0;
      }
      for (std::size_t fi = 0; fi < frontier.size(); ++fi) {
        const int u = frontier[fi];
        const std::uint8_t act = cur[fi];
        touched[static_cast<std::size_t>(u)] |= act;
        const std::uint8_t dm = destmask_of(blk, u);
        const std::uint8_t scan = act & static_cast<std::uint8_t>(~dm);
        std::uint8_t bestm = 0;
        if (scan != 0) {
          for (int e = out.begin(u); e < out.end(u); ++e) {
            const int id = out.arc[static_cast<std::size_t>(e)];
            if (!alive[static_cast<std::size_t>(id)]) continue;
            const int v = out.head[static_cast<std::size_t>(e)];
            if (v == u) continue;
            const std::uint8_t need =
                scan & P[static_cast<std::size_t>(v)];
            if (need == 0) continue;
            relaxations += static_cast<std::uint64_t>(std::popcount(need));
            const std::uint64_t* src = W + static_cast<std::size_t>(v) * rowlen;
            // One fused call per arc visit: apply the label program to every
            // needed lane (blocked opcode decode; lanes outside `need`
            // compute garbage that is never read — safe, because every row
            // is either a valid encoding or still zero-initialized) and fold
            // strict improvements into the running best row. Slot-major rows
            // take the gather-free vertical kernel.
            const std::uint8_t adopted =
                ivec ? ca.select_v(cnet.label(id), src, best.data(), need,
                                   bestm)
                     : ca.select_block(cnet.label(id), src, best.data(), cols,
                                       need, bestm);
            bestm |= adopted;
            for (unsigned m = adopted; m != 0; m &= m - 1) {
              best_arc[std::countr_zero(m)] = id;
            }
          }
        }
        std::uint8_t changed = 0;
        std::uint64_t* wu = W + static_cast<std::size_t>(u) * rowlen;
        for (unsigned m = act; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          const std::uint8_t bit = static_cast<std::uint8_t>(1u << l);
          std::uint64_t* wl = wu + static_cast<std::size_t>(l) * lmul;
          const std::uint64_t* bl =
              best.data() + static_cast<std::size_t>(l) * lmul;
          const bool had = (P[static_cast<std::size_t>(u)] & bit) != 0;
          if ((dm & bit) != 0) {
            if (!had || !lane_eq_origin(wl)) {
              lane_copy_origin(wl);
              P[static_cast<std::size_t>(u)] |= bit;
              NX[static_cast<std::size_t>(u) * static_cast<std::size_t>(cols) +
                 static_cast<std::size_t>(l)] = -1;
              changed |= bit;
            }
          } else {
            const bool now = (bestm & bit) != 0;
            bool ch = had != now;
            if (!ch && now) {
              ch = !lane_eq(wl, bl);
            }
            if (ch) {
              if (now) {
                lane_copy(wl, bl);
                P[static_cast<std::size_t>(u)] |= bit;
                NX[static_cast<std::size_t>(u) * static_cast<std::size_t>(cols) +
                   static_cast<std::size_t>(l)] = best_arc[l];
              } else {
                P[static_cast<std::size_t>(u)] &= static_cast<std::uint8_t>(~bit);
                NX[static_cast<std::size_t>(u) * static_cast<std::size_t>(cols) +
                   static_cast<std::size_t>(l)] = -1;
              }
              changed |= bit;
            }
          }
        }
        if (changed != 0) {
          wrote |= changed;
          for (int e = in.begin(u); e < in.end(u); ++e) {
            const int t = in.head[static_cast<std::size_t>(e)];
            if (!dnet.node_up(t)) continue;
            nextb[static_cast<std::size_t>(t) >> 6] |=
                std::uint64_t{1} << (t & 63);
            qmask[static_cast<std::size_t>(t)] |= changed;
          }
        }
      }
      frontier.clear();
      for (std::size_t wi = 0; wi < nwords; ++wi) {
        std::uint64_t w = nextb[wi];
        if (w == 0) continue;
        nextb[wi] = 0;
        do {
          frontier.push_back(static_cast<int>((wi << 6) +
                                              __builtin_ctzll(w)));
          w &= w - 1;
        } while (w != 0);
      }
    }
    return capped;
  }

  /// Canonical witness-forest rebuild of one flat lane (the standalone
  /// engine's rebuild_witnesses, on words).
  void flat_rebuild(Block& blk, int l, std::uint64_t& relaxations) {
    const int n = dnet.num_nodes();
    const Digraph& g = dnet.graph();
    const CsrAdjacency& out = g.csr_out();
    const CsrAdjacency& in = g.csr_in();
    const compile::CompiledAlgebra& ca = cnet.algebra();
    const int cols = blk.cols;
    const std::size_t rowlen = static_cast<std::size_t>(cols) * stride;
    const std::size_t loff = static_cast<std::size_t>(l) * stride;
    const std::size_t wbytes = stride * sizeof(std::uint64_t);
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << l);
    const int dest = dsts[static_cast<std::size_t>(blk.base + l)];
    std::uint64_t* W = blk.w.data();
    std::uint8_t* P = blk.present.data();
    int* NX = blk.next.data();
    // Per-thread scratch (one rebuild per lane per converged update; lanes on
    // one thread never nest), reused to keep malloc out of the rebuild loop.
    thread_local std::vector<char> attached;
    attached.assign(static_cast<std::size_t>(n), 0);
    if (dnet.node_up(dest) && (P[static_cast<std::size_t>(dest)] & bit) != 0) {
      std::memcpy(W + static_cast<std::size_t>(dest) * rowlen + loff,
                  origin_w.data(), wbytes);
      NX[static_cast<std::size_t>(dest) * static_cast<std::size_t>(cols) +
         static_cast<std::size_t>(l)] = -1;
      attached[static_cast<std::size_t>(dest)] = 1;
      thread_local std::vector<int> frontier;
      thread_local std::vector<int> cands;
      thread_local std::vector<int> nextf;
      thread_local std::vector<char> in_cands;
      if (in_cands.size() < static_cast<std::size_t>(n)) {
        in_cands.assign(static_cast<std::size_t>(n), 0);
      }
      frontier.assign(1, dest);
      while (!frontier.empty()) {
        // Collect this layer's candidates deduplicated on the fly (a node
        // adjacent to several frontier members would otherwise be pushed
        // once per in-arc). The flags are wiped per layer by walking the
        // candidate list, so the array stays O(n) once. The list is not
        // sorted: a candidate reads only heads attached in earlier layers
        // and writes only its own lane, and the layer attaches only after
        // the whole list is scanned, so the scan order cannot change a
        // witness, a weight or the relaxation count.
        cands.clear();
        for (int v : frontier) {
          for (int e = in.begin(v); e < in.end(v); ++e) {
            const int id = in.arc[static_cast<std::size_t>(e)];
            if (!alive[static_cast<std::size_t>(id)]) continue;
            const int u = in.head[static_cast<std::size_t>(e)];
            if (!attached[static_cast<std::size_t>(u)] &&
                !in_cands[static_cast<std::size_t>(u)] && dnet.node_up(u) &&
                (P[static_cast<std::size_t>(u)] & bit) != 0) {
              in_cands[static_cast<std::size_t>(u)] = 1;
              cands.push_back(u);
            }
          }
        }
        for (int u : cands) in_cands[static_cast<std::size_t>(u)] = 0;
        nextf.clear();
        for (int u : cands) {
          std::uint64_t* wu = W + static_cast<std::size_t>(u) * rowlen + loff;
          for (int e = out.begin(u); e < out.end(u); ++e) {
            const int id = out.arc[static_cast<std::size_t>(e)];
            if (!alive[static_cast<std::size_t>(id)]) continue;
            const int h = out.head[static_cast<std::size_t>(e)];
            if (h == u || !attached[static_cast<std::size_t>(h)]) continue;
            ++relaxations;
            // Fused witness check: on Equiv the candidate is written into
            // the lane (canonicalizing the stored weight to the achieved
            // encoding), exactly as the unfused apply/compare/copy did.
            if (ca.apply_if_equiv(
                    cnet.label(id),
                    W + static_cast<std::size_t>(h) * rowlen + loff, wu)) {
              NX[static_cast<std::size_t>(u) * static_cast<std::size_t>(cols) +
                 static_cast<std::size_t>(l)] = id;
              nextf.push_back(u);
              break;
            }
          }
        }
        for (int u : nextf) attached[static_cast<std::size_t>(u)] = 1;
        frontier.swap(nextf);
      }
    }
    for (int v = 0; v < n; ++v) {
      if (!attached[static_cast<std::size_t>(v)]) clear_route(blk, v, l);
    }
  }

  // --- shared invalidation / seeding ----------------------------------------

  /// One transitive witness-invalidation pass over every warm lane of the
  /// block at once: kill masks propagate along stored witness chains
  /// (next[u] == arc), exactly the standalone invalidate() per lane — the
  /// per-lane invalid set is the same least fixed point, discovered in one
  /// shared traversal. Invalidated routes are cleared; surviving nodes seed
  /// the warm frontier through `seed`. Returns the lanes in which a cleared
  /// node had a route.
  template <typename Seed>
  std::uint8_t invalidate_block(Block& blk, const DynNet::Applied& ap,
                                std::uint8_t lanemask, Scratch& s,
                                const Seed& seed) {
    const Digraph& g = dnet.graph();
    const CsrAdjacency& in = g.csr_in();
    const int cols = blk.cols;
    s.stack.clear();
    s.killed.clear();
    auto kill = [&](int v, std::uint8_t m) {
      const std::uint8_t nb =
          m & static_cast<std::uint8_t>(~s.inv[static_cast<std::size_t>(v)]);
      if (nb != 0) {
        if (s.inv[static_cast<std::size_t>(v)] == 0) s.killed.push_back(v);
        s.inv[static_cast<std::size_t>(v)] |= nb;
        s.stack.emplace_back(v, nb);
      }
    };
    auto witness_mask = [&](int u, int id, std::uint8_t m) {
      std::uint8_t out = 0;
      for (unsigned mm = m; mm != 0; mm &= mm - 1) {
        const int l = std::countr_zero(mm);
        if (blk.next[static_cast<std::size_t>(u) *
                         static_cast<std::size_t>(cols) +
                     static_cast<std::size_t>(l)] == id) {
          out |= static_cast<std::uint8_t>(1u << l);
        }
      }
      return out;
    };
    for (int v : ap.nodes_down) kill(v, lanemask);
    for (int id : ap.changed_arcs) {
      const int u = g.arc(id).src;
      kill(u, witness_mask(u, id, lanemask));
    }
    while (!s.stack.empty()) {
      const auto [v, m] = s.stack.back();
      s.stack.pop_back();
      for (int e = in.begin(v); e < in.end(v); ++e) {
        const int id = in.arc[static_cast<std::size_t>(e)];
        const int u = in.head[static_cast<std::size_t>(e)];
        kill(u, witness_mask(u, id, m));
      }
    }
    std::sort(s.killed.begin(), s.killed.end());
    std::uint8_t cleared = 0;
    for (int v : s.killed) {
      const std::uint8_t m = s.inv[static_cast<std::size_t>(v)];
      s.inv[static_cast<std::size_t>(v)] = 0;  // leave inv all-zero again
      cleared |= m & blk.present[static_cast<std::size_t>(v)];
      for (unsigned mm = m; mm != 0; mm &= mm - 1) {
        clear_route(blk, v, std::countr_zero(mm));
      }
      if (dnet.node_up(v)) seed(v, m);
    }
    return cleared;
  }

  /// Phase 1 of a table pass: split the block's lanes warm/cold, run the
  /// shared invalidation, and capture the warm frontier — the invalidated
  /// survivors plus the tails of changed arcs and restarted nodes (the
  /// standalone seed_nodes(), as a lane bitmask) — into the plan, along
  /// with the cost estimate phase 2 orders its steal queue by.
  void plan_block(Block& blk, const DynNet::Applied* ap, bool cold_all,
                  BlockPlan& plan) {
    const int cols = blk.cols;
    const std::uint8_t all =
        static_cast<std::uint8_t>(cols == 8 ? 0xFFu : ((1u << cols) - 1));
    if (ap == nullptr || cold_all) {
      plan.coldm = all;
    } else {
      for (int l = 0; l < cols; ++l) {
        if (!col_conv[static_cast<std::size_t>(blk.base + l)]) {
          plan.coldm |= static_cast<std::uint8_t>(1u << l);
        }
      }
    }
    plan.warmm = all & static_cast<std::uint8_t>(~plan.coldm);
    plan.dirty = plan.coldm;
    plan.cost = static_cast<std::uint64_t>(dnet.num_nodes()) *
                static_cast<std::uint64_t>(std::popcount(plan.coldm));
    if (plan.warmm == 0) return;
    Scratch& s = scratch();
    s.ensure(static_cast<std::size_t>(dnet.num_nodes()));
    auto seed = [&](int v, std::uint8_t m) {
      if (s.qmask[static_cast<std::size_t>(v)] == 0) s.seeded.push_back(v);
      s.qmask[static_cast<std::size_t>(v)] |= m;
    };
    plan.dirty |= invalidate_block(blk, *ap, plan.warmm, s, seed);
    const Digraph& g = dnet.graph();
    for (int id : ap->changed_arcs) {
      const int u = g.arc(id).src;
      if (dnet.node_up(u)) seed(u, plan.warmm);
    }
    for (int v : ap->nodes_up) {
      if (dnet.node_up(v)) seed(v, plan.warmm);
    }
    std::sort(s.seeded.begin(), s.seeded.end());
    plan.seeds.reserve(s.seeded.size());
    for (int v : s.seeded) {
      const std::uint8_t m = s.qmask[static_cast<std::size_t>(v)];
      plan.seeds.emplace_back(v, m);
      plan.cost += static_cast<std::uint64_t>(std::popcount(m));
      s.qmask[static_cast<std::size_t>(v)] = 0;  // leave qmask all-zero again
    }
    s.seeded.clear();
  }

  // --- per-block driver ------------------------------------------------------

  /// The lanes of `lanes` in which an alive changed arc u→h achieves: u != h,
  /// u is not the lane's destination, both are routed, and
  /// apply(label, w[h]) ≃ w[u]. Such an arc can enter the canonical forest
  /// although no route was cleared or written, so its lane is dirty.
  std::uint8_t achieving_lanes(const Block& blk, const DynNet::Applied& ap,
                               std::uint8_t lanes) const {
    const Digraph& g = dnet.graph();
    const compile::CompiledAlgebra& ca = cnet.algebra();
    const std::size_t rowlen = static_cast<std::size_t>(blk.cols) * stride;
    auto lane = [&](int v, int l) {
      return blk.w.data() + static_cast<std::size_t>(v) * rowlen +
             static_cast<std::size_t>(l) * stride;
    };
    thread_local std::vector<std::uint64_t> probe;
    probe.resize(stride);
    std::uint8_t hit = 0;
    for (int id : ap.changed_arcs) {
      if (lanes == 0) break;
      if (!alive[static_cast<std::size_t>(id)]) continue;
      const Arc& a = g.arc(id);
      if (a.src == a.dst) continue;
      const std::uint8_t m =
          lanes & blk.present[static_cast<std::size_t>(a.src)] &
          blk.present[static_cast<std::size_t>(a.dst)] &
          static_cast<std::uint8_t>(~destmask_of(blk, a.src));
      for (unsigned mm = m; mm != 0; mm &= mm - 1) {
        const int l = std::countr_zero(mm);
        std::copy_n(lane(a.src, l), stride, probe.data());
        if (ca.apply_if_equiv(cnet.label(id), lane(a.dst, l), probe.data())) {
          hit |= static_cast<std::uint8_t>(1u << l);
        }
      }
      lanes &= static_cast<std::uint8_t>(~hit);
    }
    return hit;
  }

  /// Diffs each lane of `dirty` against the published copy, node by node,
  /// with the daemon's predicate: routed before and after, and when routed
  /// the same witness and the same words (word equality is Value equality:
  /// the encoding is canonical and injective). Appends the transitions in
  /// column-then-node order and refreshes the copy where they differ. A
  /// clean lane is byte-identical to its copy and has nothing to report.
  void publish(Block& blk, std::uint8_t dirty, std::vector<RouteDiff>& diffs) {
    const int n = dnet.num_nodes();
    const std::size_t cols = static_cast<std::size_t>(blk.cols);
    const std::size_t rowlen = cols * stride;
    for (unsigned mm = dirty; mm != 0; mm &= mm - 1) {
      const int l = std::countr_zero(mm);
      const std::uint8_t bit = static_cast<std::uint8_t>(1u << l);
      for (int v = 0; v < n; ++v) {
        const std::size_t vi = static_cast<std::size_t>(v);
        const std::size_t ni = vi * cols + static_cast<std::size_t>(l);
        const std::uint64_t* w =
            blk.w.data() + vi * rowlen + static_cast<std::size_t>(l) * stride;
        std::uint64_t* pw = blk.pub_w.data() + (w - blk.w.data());
        const bool had = (blk.pub_present[vi] & bit) != 0;
        const bool has = (blk.present[vi] & bit) != 0;
        if (had == has && (!has || (blk.pub_next[ni] == blk.next[ni] &&
                                    std::equal(w, w + stride, pw)))) {
          continue;
        }
        diffs.push_back({blk.base + l, v, had, has, has ? blk.next[ni] : -1});
        blk.pub_present[vi] = static_cast<std::uint8_t>(
            (blk.pub_present[vi] & ~bit) | (blk.present[vi] & bit));
        blk.pub_next[ni] = blk.next[ni];
        std::copy_n(w, stride, pw);
      }
    }
  }

  /// Phase 2: runs one planned block — seed the frontier from the plan,
  /// relax every lane in lockstep, retry capped warm lanes cold with a fresh
  /// round budget (the standalone update()'s run_cold() fallback), rebuild
  /// the canonical forest of every converged dirty lane, and publish: a
  /// cold bind (`ap == nullptr`) copies the whole block, an update diffs
  /// its dirty lanes.
  void run_block(Block& blk, const BlockPlan& plan, const DynNet::Applied* ap,
                 BlockOut& out) {
    const int n = dnet.num_nodes();
    const int cols = blk.cols;
    const std::uint8_t coldm = plan.coldm;
    const std::uint8_t warmm = plan.warmm;
    // Vertical-lane relax: dense (cold-lane) multi-word relaxes of full
    // blocks run on slot-major rows so the SIMD select kernel is gather-free
    // end to end. The one-off reshape amortizes only when whole lanes
    // rebuild; warm-only relaxes keep the lane-major layout untouched.
    const bool ivec = stride > 1 && cols == kBlockCols &&
                      coldm != 0 && compile::simd::enabled() &&
                      cnet.algebra().lex_flat();
    Scratch& s = scratch();
    s.ensure(static_cast<std::size_t>(n));
    // s.qmask is all-zero on entry (relax consumes every bit it is handed,
    // and the planner zeroed its seeds), so seeding is sparse stores.
    for (const auto& [v, m] : plan.seeds) {
      s.qmask[static_cast<std::size_t>(v)] = m;
    }
    s.touched.assign(static_cast<std::size_t>(n), 0);
    for (unsigned mm = coldm; mm != 0; mm &= mm - 1) {
      const int l = std::countr_zero(mm);
      clear_lane(blk, l);
      const int d = dsts[static_cast<std::size_t>(blk.base + l)];
      if (dnet.node_up(d)) {
        s.qmask[static_cast<std::size_t>(d)] |=
            static_cast<std::uint8_t>(1u << l);
      }
    }
    if (ivec) reshape_block(blk, /*to_slot_major=*/true);
    std::uint8_t wrote = 0;
    const std::uint8_t capped =
        flat_relax(blk, s.qmask, s.touched, wrote, out.relaxations, ivec);

    const std::uint8_t retry = capped & warmm;
    std::uint8_t capped2 = 0;
    if (retry != 0) {
      // clear_lane touches only present/next bits, so the slot-major rows
      // can stay in place across the retry.
      for (unsigned mm = retry; mm != 0; mm &= mm - 1) {
        const int l = std::countr_zero(mm);
        clear_lane(blk, l);
        const int d = dsts[static_cast<std::size_t>(blk.base + l)];
        if (dnet.node_up(d)) {
          s.qmask[static_cast<std::size_t>(d)] |=
              static_cast<std::uint8_t>(1u << l);
        }
      }
      capped2 = flat_relax(blk, s.qmask, s.touched, wrote, out.relaxations,
                           ivec);
    }
    if (ivec) reshape_block(blk, /*to_slot_major=*/false);
    const std::uint8_t final_cold = coldm | retry;
    const std::uint8_t unconv =
        static_cast<std::uint8_t>((capped & coldm) | capped2);
    out.cold_cols += std::popcount(final_cold);
    // A clean converged lane keeps its weights, and no changed arc was a
    // witness (invalidation would have cleared its tail) or achieves now,
    // so its rebuild would reproduce the forest byte for byte (docs/DYN.md).
    std::uint8_t dirty = plan.dirty | final_cold | wrote;
    if (ap != nullptr) {
      dirty |= achieving_lanes(
          blk, *ap, static_cast<std::uint8_t>((warmm | coldm) & ~dirty));
    }
    for (int l = 0; l < cols; ++l) {
      const std::uint8_t bit = static_cast<std::uint8_t>(1u << l);
      const bool conv = (unconv & bit) == 0;
      col_conv[static_cast<std::size_t>(blk.base + l)] =
          conv ? 1 : 0;
      if ((dirty & bit) != 0) {
        rvalid[static_cast<std::size_t>(blk.base + l)] = 0;
        if (conv) {
          flat_rebuild(blk, l, out.relaxations);
          ++out.rebuilt;
        }
      }
      if ((final_cold & bit) != 0) {
        stats.affected[static_cast<std::size_t>(blk.base + l)] = n;
      } else {
        int cnt = 0;
        for (int v = 0; v < n; ++v) {
          if ((s.touched[static_cast<std::size_t>(v)] & bit) != 0) ++cnt;
        }
        stats.affected[static_cast<std::size_t>(blk.base + l)] = cnt;
      }
    }
    if (ap == nullptr) {
      blk.pub_w = blk.w;
      blk.pub_present = blk.present;
      blk.pub_next = blk.next;
    } else {
      publish(blk, dirty, out.diffs);
    }
  }

  /// Two-phase pass over the destination blocks. Phase 1 plans every block
  /// (lane split, invalidation, warm seeds, cost estimate) under static
  /// chunking; phase 2 relaxes them under deterministic work stealing in
  /// descending-cost order (LPT, ties by block index), so one skewed
  /// destination region no longer pins a static chunk assignment to a
  /// single thread. Blocks own disjoint state and write disjoint stats
  /// slots; the steal order decides only *who* runs a block, and per-block
  /// outputs merge in block order — bit-identical at any thread count.
  void run_all_blocks(const DynNet::Applied* ap, bool cold_all) {
    const std::size_t nb = blocks.size();
    std::vector<BlockPlan> plans(nb);
    std::vector<BlockOut> outs(nb);
    par::parallel_for(nb, 1, [&](std::size_t b0, std::size_t b1) {
      for (std::size_t b = b0; b < b1; ++b) {
        plan_block(blocks[b], ap, cold_all, plans[b]);
      }
    });
    std::vector<std::size_t> order(nb);
    for (std::size_t b = 0; b < nb; ++b) order[b] = b;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return plans[a].cost > plans[b].cost;
                     });
    par::parallel_steal(order, [&](std::size_t b) {
      run_block(blocks[b], plans[b], ap, outs[b]);
    });
    for (const BlockOut& o : outs) {
      stats.relaxations += o.relaxations;
      stats.cold_columns += o.cold_cols;
      stats.rebuilt_columns += o.rebuilt;
      changes.insert(changes.end(), o.diffs.begin(), o.diffs.end());
    }
    stats.cold = stats.cold_columns == stats.columns;
  }

  // --- reference columns ------------------------------------------------------

  /// Runs `step(solver, c, fold)` on every reference column under the same
  /// par::parallel_for the blocks use; `step` calls `fold()` after each of
  /// the column's solve()/update() calls. Columns merge their UpdateStats
  /// in column order, exactly as the flat blocks account: relaxations
  /// summed, affected[c] = |V| for a column that went cold, cold columns
  /// counted — so the stats, like the routes, are the same at any thread
  /// count.
  template <typename Step>
  void run_refs(const Step& step) {
    const std::size_t nc = refs.size();
    std::vector<std::uint64_t> relax(nc, 0);
    std::vector<std::uint8_t> cold(nc, 0);
    std::vector<std::uint8_t> rebuilt(nc, 0);
    par::parallel_for(nc, 1, [&](std::size_t c0, std::size_t c1) {
      for (std::size_t c = c0; c < c1; ++c) {
        Solver& ref = *refs[c];
        step(ref, c, [&] {
          const dyn::UpdateStats& st = ref.last_update();
          relax[c] += st.relaxations;
          if (st.cold) cold[c] = 1;
          if (st.rebuilt) rebuilt[c] = 1;
          stats.affected[c] = cold[c] ? stats.total : st.affected;
        });
        col_conv[c] = ref.converged() ? 1 : 0;
      }
    });
    for (std::size_t c = 0; c < nc; ++c) {
      stats.relaxations += relax[c];
      stats.cold_columns += cold[c];
      stats.rebuilt_columns += rebuilt[c];
    }
    stats.cold = stats.cold_columns == stats.columns;
  }

  /// The reference columns' route changes: each column's routing diffed
  /// against its published copy with publish()'s predicate on boxed values,
  /// in column-then-node order, refreshing the copy where they differ.
  void publish_refs() {
    const int n = dnet.num_nodes();
    for (std::size_t c = 0; c < refs.size(); ++c) {
      const Routing& r = refs[c]->routing();
      Routing& pub = ref_pub[c];
      for (int v = 0; v < n; ++v) {
        const std::size_t vi = static_cast<std::size_t>(v);
        const bool had = pub.weight[vi].has_value();
        const bool has = r.weight[vi].has_value();
        if (had == has &&
            (!has || (pub.next_arc[vi] == r.next_arc[vi] &&
                      *pub.weight[vi] == *r.weight[vi]))) {
          continue;
        }
        changes.push_back({static_cast<int>(c), v, had, has,
                           has ? r.next_arc[vi] : -1});
        pub.weight[vi] = r.weight[vi];
        pub.next_arc[vi] = r.next_arc[vi];
      }
    }
  }

  // --- stats -------------------------------------------------------------------

  void begin_stats(bool cold, std::size_t changed_arcs) {
    stats = RibStats{};
    changes.clear();
    stats.cold = cold;
    stats.columns = columns();
    stats.total = dnet.num_nodes();
    stats.changed_arcs = static_cast<int>(changed_arcs);
    stats.affected.assign(static_cast<std::size_t>(columns()), 0);
  }

  void finish_stats() const {
    if (!obs::enabled()) return;
    obs::Registry& reg = obs::registry();
    reg.counter("dyn.rib.updates").add(1);
    if (stats.cold) reg.counter("dyn.rib.updates_cold").add(1);
    reg.counter("dyn.rib.cold_columns")
        .add(static_cast<std::uint64_t>(stats.cold_columns));
    reg.counter("dyn.rib.affected_nodes")
        .add(static_cast<std::uint64_t>(stats.affected_total()));
    reg.counter("dyn.rib.changed_arcs")
        .add(static_cast<std::uint64_t>(stats.changed_arcs));
    reg.counter("dyn.rib.relaxations").add(stats.relaxations);
    reg.counter("dyn.rib.rebuilt_columns")
        .add(static_cast<std::uint64_t>(stats.rebuilt_columns));
    reg.histogram("dyn.rib.affected_pct")
        .record(static_cast<std::uint64_t>(stats.affected_mean_fraction() *
                                           100.0));
  }

  // --- binding / top level -----------------------------------------------------

  void bind(const LabeledGraph& net, std::vector<int> ds, const Value& org) {
    MRT_REQUIRE(!ds.empty());
    for (int d : ds) MRT_REQUIRE(d >= 0 && d < net.num_nodes());
    dnet = DynNet(net, alg.fns);
    origin = org;
    dsts = std::move(ds);
    bound = true;
    jstream = obs::journal_next_stream();
    if (weng != nullptr) {
      cnet = compile::CompiledNet::make(*weng, dnet.net());
    } else {
      cnet = compile::CompiledNet();
    }
    stride = 0;
    flat = false;
    if (cnet.ok()) {
      stride = static_cast<std::size_t>(cnet.words());
      origin_w.assign(stride, 0);
      flat = cnet.algebra().encode(origin, origin_w.data());
    }
    if (obs::enabled()) {
      obs::counter(flat ? "dyn.rib.solves_flat" : "dyn.rib.solves_boxed")
          .add(1);
      obs::counter("dyn.rib.columns")
          .add(static_cast<std::uint64_t>(dsts.size()));
    }

    const int total = columns();
    col_conv.assign(static_cast<std::size_t>(total), 0);
    blocks.clear();
    refs.clear();
    ref_pub.clear();
    if (!flat) {
      cnet = compile::CompiledNet();
      for (std::size_t c = 0; c < dsts.size(); ++c) {
        refs.push_back(dyn::make_solver(dyn::EngineKind::Bellman, alg));
      }
      return;
    }
    const int n = dnet.num_nodes();
    for (int base = 0; base < total; base += kBlockCols) {
      Block blk;
      blk.base = base;
      blk.cols = std::min(kBlockCols, total - base);
      const std::size_t ncols = static_cast<std::size_t>(blk.cols);
      blk.next.assign(static_cast<std::size_t>(n) * ncols, -1);
      for (int l = 0; l < blk.cols; ++l) {
        blk.dest[l] = dsts[static_cast<std::size_t>(base + l)];
      }
      blk.w.assign(static_cast<std::size_t>(n) * ncols * stride, 0);
      blk.present.assign(static_cast<std::size_t>(n), 0);
      blocks.push_back(std::move(blk));
    }
    rcache.assign(static_cast<std::size_t>(total), Routing{});
    rvalid.assign(static_cast<std::size_t>(total), 0);
    alive.resize(static_cast<std::size_t>(dnet.graph().num_arcs()));
    for (int id = 0; id < dnet.graph().num_arcs(); ++id) set_alive(id);
    // Build the CSR views once, outside the parallel region.
    dnet.graph().csr_out();
    dnet.graph().csr_in();
  }

  void solve(const LabeledGraph& net, std::vector<int> ds, const Value& org) {
    static obs::Histogram& solve_ns =
        obs::registry().histogram("dyn.rib.solve_ns");
    obs::ScopedTimer timer(solve_ns);
    bind(net, std::move(ds), org);
    obs::jrecord(Subsystem::Dyn, EventKind::SolveBegin, jstream, -1, -1,
                 static_cast<std::int64_t>(columns()), dnet.version());
    begin_stats(/*cold=*/true, 0);
    if (flat) {
      run_all_blocks(nullptr, /*cold_all=*/true);
    } else {
      run_refs([&](Solver& ref, std::size_t c, const auto& fold) {
        ref.solve(dnet.net(), dsts[c], origin);
        fold();
      });
      for (const auto& ref : refs) ref_pub.push_back(ref->routing());
    }
    finish_stats();
    obs::jrecord(Subsystem::Dyn, EventKind::UpdateEnd, jstream, -1, -1,
                 -stats.affected_total(), dnet.version());
  }

  void update(const TopologyDelta& delta) {
    MRT_REQUIRE(bound);
    static obs::Histogram& update_ns =
        obs::registry().histogram("dyn.rib.update_ns");
    obs::ScopedTimer timer(update_ns);
    const DynNet::Applied ap = dnet.apply(delta);
    dyn::journal_delta(jstream, delta, ap, dnet);
    begin_stats(/*cold=*/false, ap.changed_arcs.size());
    if (flat) {
      // Delta-aware re-encoding, as in the standalone engines. dnet checked
      // every label against the family, so every program compiles.
      for (int id : ap.relabeled_arcs) cnet.relabel(id, dnet.label(id));
      if (ap.any()) {
        // An arc's alive state changes only if it is a changed arc.
        for (int id : ap.changed_arcs) set_alive(id);
        run_all_blocks(&ap, /*cold_all=*/!dyn::enabled());
      }
    } else {
      // Every delta reaches every reference column, no-op ones included: a
      // relabel of a dead arc must be in place when the arc comes back.
      run_refs([&](Solver& ref, std::size_t, const auto& fold) {
        ref.update(delta);
        fold();
      });
      publish_refs();
    }
    finish_stats();
    obs::jrecord(Subsystem::Dyn, EventKind::UpdateEnd, jstream, -1, -1,
                 stats.cold ? -stats.affected_total()
                            : stats.affected_total(),
                 dnet.version());
  }

  /// Decodes flat column c into `r`.
  void decode_column(int c, Routing& r) const {
    const Block& blk = blocks[static_cast<std::size_t>(c / kBlockCols)];
    const int l = c % kBlockCols;
    const int n = dnet.num_nodes();
    r.weight.assign(static_cast<std::size_t>(n), std::nullopt);
    r.next_arc.assign(static_cast<std::size_t>(n), -1);
    const compile::CompiledAlgebra& ca = cnet.algebra();
    const std::size_t rowlen = static_cast<std::size_t>(blk.cols) * stride;
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << l);
    for (int v = 0; v < n; ++v) {
      if ((blk.present[static_cast<std::size_t>(v)] & bit) != 0) {
        r.weight[static_cast<std::size_t>(v)] =
            ca.decode(blk.w.data() + static_cast<std::size_t>(v) * rowlen +
                      static_cast<std::size_t>(l) * stride);
      }
      r.next_arc[static_cast<std::size_t>(v)] =
          blk.next[static_cast<std::size_t>(v) *
                       static_cast<std::size_t>(blk.cols) +
                   static_cast<std::size_t>(l)];
    }
  }

  const Routing& routing(int c) const {
    MRT_REQUIRE(bound && c >= 0 && c < columns());
    if (!flat) return refs[static_cast<std::size_t>(c)]->routing();
    if (!rvalid[static_cast<std::size_t>(c)]) {
      decode_column(c, rcache[static_cast<std::size_t>(c)]);
      rvalid[static_cast<std::size_t>(c)] = 1;
    }
    return rcache[static_cast<std::size_t>(c)];
  }
};

RibSolver::RibSolver(const OrderTransform& alg,
                     const compile::WeightEngine* engine)
    : impl_(std::make_unique<Impl>(alg, engine)) {}

RibSolver::~RibSolver() = default;

void RibSolver::solve(const LabeledGraph& net, std::vector<int> dests,
                      const Value& origin) {
  impl_->solve(net, std::move(dests), origin);
}

void RibSolver::solve_all(const LabeledGraph& net, const Value& origin) {
  std::vector<int> all(static_cast<std::size_t>(net.num_nodes()));
  for (int v = 0; v < net.num_nodes(); ++v) {
    all[static_cast<std::size_t>(v)] = v;
  }
  impl_->solve(net, std::move(all), origin);
}

void RibSolver::update(const dyn::TopologyDelta& delta) {
  impl_->update(delta);
}

int RibSolver::num_columns() const { return impl_->columns(); }

const std::vector<int>& RibSolver::dests() const { return impl_->dsts; }

const Routing& RibSolver::routing(int column) const {
  return impl_->routing(column);
}

bool RibSolver::converged() const {
  for (std::uint8_t c : impl_->col_conv) {
    if (!c) return false;
  }
  return true;
}

bool RibSolver::column_converged(int column) const {
  MRT_REQUIRE(column >= 0 && column < impl_->columns());
  return impl_->col_conv[static_cast<std::size_t>(column)] != 0;
}

const RibStats& RibSolver::last_update() const { return impl_->stats; }

const std::vector<RouteDiff>& RibSolver::last_changes() const {
  return impl_->changes;
}

const dyn::DynNet& RibSolver::net() const { return impl_->dnet; }

std::uint32_t RibSolver::journal_stream() const { return impl_->jstream; }

bool RibSolver::batched_flat() const { return impl_->flat; }

}  // namespace rib
}  // namespace mrt
