// mrt::serve — a long-running routing daemon over a delta stream.
//
// The ROADMAP north-star is an operable system, not a batch solver: bind a
// routing table once, then keep it warm under a sustained feed of topology
// changes. serve::Daemon is that loop, assembled entirely from the seams
// underneath it: a rib::RibSolver holds the all-destination state, a
// stream::DeltaStream supplies the changes (wire-format file, in-memory
// replay log, or a simulator run via SimDeltaSource), and every applied
// delta is one ordinary warm RibSolver::update — the daemon adds no solver
// logic of its own, only lifecycle, route-change forwarding, and telemetry.
//
//   lifecycle   start(net, dests, origin)   cold bind, one full solve
//               apply(delta) / drain(stream)  warm updates, in stream order
//   events      RouteChange per (column, node) whose route content changed
//               (gained, lost, new weight, or new witness arc): the table's
//               own RibSolver::last_changes(), forwarded; nothing is decoded
//   telemetry   serve.deltas_consumed / serve.route_changes counters,
//               serve.update_ns latency histogram (p50/p90/p99)
//
// See docs/SERVE.md for the wire format, the bench methodology, and the
// byte-identity contract (stream-of-N ≡ one N-op batch ≡ cold solve).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mrt/rib/rib.hpp"
#include "mrt/stream/stream.hpp"

namespace mrt::serve {

/// One route transition observed after applying a delta: column `column`
/// (destination dests()[column]) at `node` changed its route content.
struct RouteChange {
  std::uint64_t update_index = 0;  ///< 0-based index of the delta that did it
  int column = 0;
  int dest = 0;
  int node = 0;
  bool had_route = false;  ///< before the delta
  bool has_route = false;  ///< after the delta
  int next_arc = -1;       ///< witness arc after (-1 when withdrawn)
};

struct ServeStats {
  std::uint64_t deltas_consumed = 0;
  std::uint64_t route_changes = 0;
  std::uint64_t withdrawals = 0;    ///< route_changes that lost the route
  std::uint64_t warm_updates = 0;   ///< updates on the incremental path
  std::uint64_t cold_updates = 0;   ///< updates that fell back to cold
  std::uint64_t decode_errors = 0;  ///< streams terminated by a bad frame,
                                    ///< each counted once
};

class Daemon {
 public:
  /// `engine` (optional, non-owning, must outlive the daemon) routes the
  /// table through the compiled flat kernels, exactly as for RibSolver.
  explicit Daemon(const OrderTransform& alg,
                  const compile::WeightEngine* engine = nullptr);

  /// Cold bind: one full solve of every destination column; nothing is
  /// decoded. May be called again to rebind (stats reset).
  void start(const LabeledGraph& net, std::vector<int> dests,
             const Value& origin);

  using ChangeSink = std::function<void(const RouteChange&)>;

  /// Applies one delta batch warm and reports the route transitions it
  /// caused (the table's last_changes()) to `sink` (if set). Returns the
  /// number of route changes. A batch the table rejects (an out-of-range
  /// arc or node id, or a relabel outside the algebra's label family)
  /// throws std::logic_error and changes nothing: not the table, not its
  /// engine, not stats().
  std::size_t apply(const dyn::TopologyDelta& delta,
                    const ChangeSink& sink = {});

  /// Drains `s` to exhaustion, one apply() per batch. Returns the number of
  /// batches consumed; a decode failure stops the drain at the last good
  /// batch (s.error() has the reason). stats().decode_errors is bumped by
  /// the drain in which s.error() first appears, so draining an already
  /// failed stream again returns 0 and counts nothing.
  std::size_t drain(stream::DeltaStream& s, const ChangeSink& sink = {});

  const rib::RibSolver& rib() const { return rib_; }
  const ServeStats& stats() const { return stats_; }
  bool started() const { return started_; }

 private:
  rib::RibSolver rib_;
  ServeStats stats_;
  bool started_ = false;
  std::uint64_t update_index_ = 0;
};

}  // namespace mrt::serve
