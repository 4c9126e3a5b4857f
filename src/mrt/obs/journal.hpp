// The convergence flight recorder: a low-overhead structured event journal.
//
// Producers append fixed-size POD JournalRecords into per-thread ring
// buffers; a drain merges every ring into one log ordered by a global
// sequence counter. The design constraints mirror the metrics registry
// (ISSUE 1, docs/OBSERVABILITY.md):
//  - near-zero cost when off: every record() call first reads the inlined
//    `journal_enabled()` flag (a relaxed atomic load, initialized from the
//    MRT_JOURNAL environment variable) and returns immediately when clear;
//  - race-free when drained mid-run: each ring is guarded by its own mutex,
//    uncontended on the hot path because only its owning thread appends —
//    a concurrent drain takes the same mutex, so TSan-clean by construction;
//  - bounded memory: a full ring overwrites its oldest record (flight
//    recorder semantics — the most recent history survives) and counts the
//    overwrite in dropped().
//
// Records carry (subsystem, event kind, node/arc ids, solver version,
// steady-clock ns, sim virtual time) plus a `stream` id that separates
// interleaved producers: each Solver::solve() binding and each PathVectorSim
// takes a fresh stream from journal_next_stream(), so the provenance layer
// (provenance.hpp) can reconstruct one solver's causal chain out of a
// process-global log.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace mrt::obs {

/// Global journal switch, independent of obs::enabled(). Initialized once
/// from MRT_JOURNAL ("1"/"true"/"on"/"yes" enable); flippable at runtime
/// with set_journal_enabled().
namespace detail {
extern std::atomic<bool> g_journal_enabled;
}  // namespace detail

inline bool journal_enabled() noexcept {
  return detail::g_journal_enabled.load(std::memory_order_relaxed);
}
void set_journal_enabled(bool on) noexcept;

/// Which layer emitted a record.
enum class Subsystem : std::uint8_t {
  Dyn,    ///< the solver seam (mrt::dyn)
  Sim,    ///< the path-vector simulator (mrt::sim)
  Chaos,  ///< fault-injection campaigns (mrt::chaos)
};

enum class EventKind : std::uint8_t {
  // mrt::dyn — the solver seam. WitnessAttach / WitnessClear are *diff*
  // events: one per node whose (weight, witness arc) actually changed in a
  // solve/update, so the last attach for a node names the delta that caused
  // its current route (see provenance.hpp).
  SolveBegin,         ///< cold bind; aux = num_nodes
  UpdateBegin,        ///< delta batch accepted; aux = ops in the batch
  DeltaArc,           ///< arc alive-status changed; aux = 1 if now admin-up
  DeltaRelabel,       ///< arc label replaced
  DeltaNodeDown,      ///< node transitioned up -> down
  DeltaNodeUp,        ///< node transitioned down -> up
  WitnessInvalidate,  ///< route cleared by transitive invalidation; arc = old witness
  WitnessAttach,      ///< route (re)settled; arc = witness (-1 at the destination)
  WitnessClear,       ///< route gone at the end of an update
  RelaxSettle,        ///< warm Dijkstra settled a node; aux = settle ordinal
  RelaxWave,          ///< Bellman worklist round; aux = frontier size
  UpdateEnd,          ///< aux = affected nodes (negative when the pass ran cold)
  // mrt::sim — the path-vector protocol (sim_us carries virtual time).
  // MsgSend / MsgDeliver: arc = channel, aux = 1 for a route, 0 for a
  // withdrawal.
  MsgSend,     ///< advertisement enqueued; node = sender
  MsgDeliver,  ///< advertisement delivered; node = receiver
  MsgLoss,     ///< delivery lost; aux = 0 dead arc, 1 injected fault
  Reselect,    ///< selection changed; arc = new witness, aux = flap count
  LinkDown,
  LinkUp,
  NodeCrash,
  NodeRestart,
  Resync,
  StaleDrop,   ///< reordered delivery discarded as stale (latest send wins)
  QueueDepth,  ///< sampled every 64th delivery; aux = queued events
  // mrt::adv — adversarial schedule policies (sim_us carries virtual time).
  SchedReorder,  ///< a send overtook an earlier one on its arc
  SchedStarve,   ///< a best-route advertisement was priority-inverted
  // mrt::chaos
  FaultOutcome,  ///< run verdict; aux = 0 pass, 1 diverged, 2 accounting,
                 ///< 3 oracle, 4 certificate bound violated
};

const char* to_string(Subsystem s) noexcept;
const char* to_string(EventKind k) noexcept;

/// One journal entry. POD: rings copy these by assignment, never allocate.
struct JournalRecord {
  std::uint64_t seq = 0;      ///< global order, 1-based (0 = "no record")
  std::uint64_t t_ns = 0;     ///< steady-clock ns since the journal epoch
  std::uint64_t sim_us = 0;   ///< simulator virtual time in µs (Sim records)
  std::uint64_t version = 0;  ///< DynNet topology version (Dyn records)
  std::int64_t aux = 0;       ///< kind-specific payload
  std::uint32_t stream = 0;   ///< producer stream (solver binding / sim run)
  std::int32_t node = -1;
  std::int32_t arc = -1;
  Subsystem subsystem = Subsystem::Dyn;
  EventKind kind = EventKind::SolveBegin;

  /// One-line rendering. Deliberately excludes t_ns, so two journals of the
  /// same deterministic run render identically after a journal reset (the
  /// chaos replay test diffs these lines).
  std::string describe() const;
};
static_assert(std::is_trivially_copyable_v<JournalRecord>,
              "rings copy records raw");

/// The process-global flight recorder. Use through journal(); the
/// constructor is private because per-thread rings are cached in
/// thread-local storage that assumes a single instance.
class Journal {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 15;  ///< per thread

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends one record (no-op when the journal is disabled). Safe from any
  /// thread; concurrent with drain()/snapshot()/reset().
  void record(Subsystem s, EventKind k, std::uint32_t stream, int node,
              int arc, std::int64_t aux = 0, std::uint64_t version = 0,
              std::uint64_t sim_us = 0) noexcept;

  /// Merges every ring into one log sorted by seq and clears the rings.
  std::vector<JournalRecord> drain();
  /// Same merge without clearing.
  std::vector<JournalRecord> snapshot() const;

  /// Records overwritten because a ring was full (cumulative since reset).
  std::uint64_t dropped() const;
  /// Records accepted since reset (drained or not, minus nothing).
  std::uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }

  /// Clears every ring, the drop counts, the sequence counter, and the
  /// stream numbering (journal_next_stream restarts at 1 — deterministic
  /// replays after a reset render identical describe() lines), and re-stamps
  /// the epoch. Ring capacity changes requested by set_capacity take effect
  /// here. Thread rings stay registered (stable for writers).
  void reset();

  /// Per-thread ring capacity for rings created or reset() after the call.
  void set_capacity(std::size_t records);

 private:
  struct Ring {
    std::mutex mu;
    std::vector<JournalRecord> buf;  // fixed size = capacity
    std::size_t next = 0;            // write cursor
    std::size_t count = 0;           // live records (<= buf.size())
    std::uint64_t dropped = 0;
  };

  Journal() = default;
  friend Journal& journal();

  /// The calling thread's ring (a plain pointer is enough precisely because
  /// Journal is single-instance and leaked).
  static thread_local Ring* t_ring_;

  Ring& local_ring();
  static void collect(const Ring& r, std::vector<JournalRecord>& out);

  mutable std::mutex mu_;  // guards rings_ registration and capacity_
  std::vector<std::unique_ptr<Ring>> rings_;
  std::size_t capacity_ = kDefaultCapacity;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::int64_t> epoch_ns_{0};
};

/// The process-wide journal (leaked, like the metrics registry: outlives
/// static destructors so late writers never touch a dead object).
Journal& journal();

/// A fresh producer-stream id (1-based; 0 means "no stream").
std::uint32_t journal_next_stream() noexcept;

/// Hot-path shorthand: one relaxed load when the journal is off.
inline void jrecord(Subsystem s, EventKind k, std::uint32_t stream, int node,
                    int arc, std::int64_t aux = 0, std::uint64_t version = 0,
                    std::uint64_t sim_us = 0) noexcept {
  if (!journal_enabled()) return;
  journal().record(s, k, stream, node, arc, aux, version, sim_us);
}

}  // namespace mrt::obs
