// mrt::rib — batched all-destination routing tables over CSR / SoA storage.
//
// A dyn::Solver binds one (net, dest) pair; a production RIB holds routes to
// *every* destination. Because the metarouting fixed point is per-destination
// independent (Daggitt–Griffin, arXiv:2106.01184 — each destination's DBF
// converges on its own), a batched solver can share one topology sweep across
// many destination columns. RibSolver groups the destination set into blocks
// of up to kBlockCols columns and stores each block's state
// structure-of-arrays over the mrt::compile flat layout:
//
//   words[(v * cols + c) * stride + k]   — weight word k of column c at node v
//   present[v]                           — per-node bitmask, bit c = routed
//   next_arc[v * cols + c]               — witness arc of column c at node v
//
// so one worklist pass over the CSR adjacency relaxes every column of a
// block per arc visit, running the fused label program through
// CompiledAlgebra::select_block (one opcode decode for the whole block).
// A table that does not compile at bind — no engine, MRT_COMPILE=0, or an
// algebra or label the compiler rejects — holds one reference column per
// destination instead: a standalone dyn::Solver(EngineKind::Bellman), the
// engine the flat columns are byte-compared against. The flat kernels are
// the only relaxation engine the RIB itself implements. A table keeps the
// engine it was bound with: a relabel outside the algebra's label family
// is refused before it mutates anything, and every member of a compiled
// family compiles.
//
// The dynamic seams thread straight through: warm updates take a
// dyn::TopologyDelta, refresh one shared alive-mask, run one transitive
// witness-invalidation pass over the whole block (per-column kill masks),
// and re-relax each column from its own seed frontier; mrt::par spreads the
// destination blocks (or the reference columns) across workers under the
// bit-identical-at-any-thread-count contract (disjoint state, merged in
// index order).
//
// An update pays per lane only for the lanes it made *dirty*: a lane whose
// invalidation cleared a route, whose relax wrote one, that ran cold, or in
// which an alive changed arc now achieves. A clean lane provably keeps its
// canonical witness forest byte for byte (docs/DYN.md), so it skips the
// rebuild and has no route change to report. Each block keeps a copy of
// its state as last published; last_changes() is the diff of the dirty
// lanes against it.
//
// The correctness contract is differential: every column — cold, and after
// any delta sequence — is byte-identical to a standalone
// dyn::Solver(EngineKind::Bellman) bound to that destination. The batched
// relaxation replays the exact same per-column trajectory (same Gauss–Seidel
// rounds, same ascending-node order within a round, same smallest-arc-id tie
// breaks, same canonical witness-forest rebuild); columns never read each
// other's state, so batching changes the memory layout and the work
// schedule, never a byte of the answer. See docs/RIB.md.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mrt/compile/engine.hpp"
#include "mrt/dyn/delta.hpp"

namespace mrt {

namespace rib {

/// Destination columns per block: wide enough to amortize opcode decode and
/// fill a cache line of single-word carriers, narrow enough that a block's
/// working row fits in registers-ish scratch. The per-column bitmasks are
/// uint8, so this is also a hard ceiling.
inline constexpr int kBlockCols = 8;

/// Work accounting of the last solve()/update(), per destination column.
struct RibStats {
  bool cold = false;      ///< every column ran a full re-solve
  int columns = 0;        ///< destination columns in the table
  int cold_columns = 0;   ///< columns that fell back to a cold solve
  int total = 0;          ///< nodes in the bound network
  int changed_arcs = 0;   ///< arcs changed by the applied delta
  int rebuilt_columns = 0;  ///< columns whose witness forest was rebuilt
  std::uint64_t relaxations = 0;
  std::vector<int> affected;  ///< per-column re-relaxed node counts

  std::int64_t affected_total() const {
    std::int64_t s = 0;
    for (int a : affected) s += a;
    return s;
  }
  int affected_max() const {
    int m = 0;
    for (int a : affected) m = a > m ? a : m;
    return m;
  }
  /// Mean affected fraction across columns, in [0, 1].
  double affected_mean_fraction() const {
    if (total <= 0 || affected.empty()) return 0.0;
    return static_cast<double>(affected_total()) /
           (static_cast<double>(total) * static_cast<double>(affected.size()));
  }
};

/// One (column, node) route transition of the last update(): the route was
/// gained, lost, or changed its weight or its witness arc.
struct RouteDiff {
  int column = 0;
  int node = 0;
  bool had = false;   ///< routed before the update
  bool has = false;   ///< routed after it
  int next_arc = -1;  ///< witness arc after (-1 when withdrawn)
};

/// Batched multi-destination solver. solve() binds (net, dests, origin) and
/// computes every column cold; update() applies a TopologyDelta and warm-
/// maintains all columns at once. routing(c) materializes column c as an
/// ordinary boxed Routing (lazily, cached until a solve or an update that
/// dirties the column).
class RibSolver {
 public:
  /// `engine` (optional, non-owning, must outlive the solver) routes the
  /// batched sweep through the compiled flat kernels; without it — or when
  /// the algebra or a label does not compile at bind — every column is a
  /// reference dyn::Solver(EngineKind::Bellman).
  explicit RibSolver(const OrderTransform& alg,
                     const compile::WeightEngine* engine = nullptr);
  ~RibSolver();
  RibSolver(const RibSolver&) = delete;
  RibSolver& operator=(const RibSolver&) = delete;

  /// Cold full solve of one column per destination in `dests` (each in
  /// [0, num_nodes); duplicates allowed — columns are independent).
  void solve(const LabeledGraph& net, std::vector<int> dests,
             const Value& origin);
  /// Cold full solve with dests = {0, 1, ..., num_nodes - 1}.
  void solve_all(const LabeledGraph& net, const Value& origin);

  /// Applies `delta` to the bound topology and recomputes every column
  /// incrementally (cold when dyn::enabled() is false or a column's previous
  /// pass did not converge). Requires a prior solve(). A delta with an
  /// out-of-range arc or node id, or a relabel outside the algebra's label
  /// family, throws std::logic_error and leaves the table untouched.
  void update(const dyn::TopologyDelta& delta);

  int num_columns() const;
  const std::vector<int>& dests() const;
  /// Column c as a boxed Routing — byte-identical to a standalone
  /// dyn::Solver(Bellman) for dests()[c]. Valid until the next
  /// solve()/update().
  const Routing& routing(int column) const;

  bool converged() const;                  ///< every column converged
  bool column_converged(int column) const;
  const RibStats& last_update() const;
  /// The route transitions of the last update(), in column-then-node order
  /// (empty after solve()). A flat table diffs the words of its dirty lanes
  /// against its published copy; reference columns diff boxed Routings.
  const std::vector<RouteDiff>& last_changes() const;
  const dyn::DynNet& net() const;
  std::uint32_t journal_stream() const;
  /// True when the batched flat kernels are active (compiled engine present,
  /// algebra + all labels compiled, origin encodable). Decided by solve()
  /// and unchanged by every update() of that binding.
  bool batched_flat() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rib
}  // namespace mrt
