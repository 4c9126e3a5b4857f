#include "mrt/obs/journal.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mrt::obs {
namespace {

bool journal_env_enabled() {
  const char* v = std::getenv("MRT_JOURNAL");
  if (!v) return false;
  return std::strcmp(v, "1") == 0 || std::strcmp(v, "true") == 0 ||
         std::strcmp(v, "on") == 0 || std::strcmp(v, "yes") == 0;
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<std::uint32_t> g_next_stream{0};

}  // namespace

thread_local Journal::Ring* Journal::t_ring_ = nullptr;

namespace detail {
std::atomic<bool> g_journal_enabled{journal_env_enabled()};
}  // namespace detail

void set_journal_enabled(bool on) noexcept {
  detail::g_journal_enabled.store(on, std::memory_order_relaxed);
}

const char* to_string(Subsystem s) noexcept {
  switch (s) {
    case Subsystem::Dyn:
      return "dyn";
    case Subsystem::Sim:
      return "sim";
    case Subsystem::Chaos:
      return "chaos";
  }
  return "?";
}

const char* to_string(EventKind k) noexcept {
  switch (k) {
    case EventKind::SolveBegin:
      return "solve_begin";
    case EventKind::UpdateBegin:
      return "update_begin";
    case EventKind::DeltaArc:
      return "delta_arc";
    case EventKind::DeltaRelabel:
      return "delta_relabel";
    case EventKind::DeltaNodeDown:
      return "delta_node_down";
    case EventKind::DeltaNodeUp:
      return "delta_node_up";
    case EventKind::WitnessInvalidate:
      return "witness_invalidate";
    case EventKind::WitnessAttach:
      return "witness_attach";
    case EventKind::WitnessClear:
      return "witness_clear";
    case EventKind::RelaxSettle:
      return "relax_settle";
    case EventKind::RelaxWave:
      return "relax_wave";
    case EventKind::UpdateEnd:
      return "update_end";
    case EventKind::MsgSend:
      return "msg_send";
    case EventKind::MsgDeliver:
      return "msg_deliver";
    case EventKind::MsgLoss:
      return "msg_loss";
    case EventKind::Reselect:
      return "reselect";
    case EventKind::LinkDown:
      return "link_down";
    case EventKind::LinkUp:
      return "link_up";
    case EventKind::NodeCrash:
      return "node_crash";
    case EventKind::NodeRestart:
      return "node_restart";
    case EventKind::Resync:
      return "resync";
    case EventKind::StaleDrop:
      return "stale_drop";
    case EventKind::QueueDepth:
      return "queue_depth";
    case EventKind::SchedReorder:
      return "sched_reorder";
    case EventKind::SchedStarve:
      return "sched_starve";
    case EventKind::FaultOutcome:
      return "fault_outcome";
  }
  return "?";
}

std::string JournalRecord::describe() const {
  char buf[192];
  int len = std::snprintf(
      buf, sizeof buf, "%08llu %s.%s s=%lu node=%d arc=%d aux=%lld",
      static_cast<unsigned long long>(seq), to_string(subsystem),
      to_string(kind), static_cast<unsigned long>(stream), node, arc,
      static_cast<long long>(aux));
  if (version != 0 && len > 0 && len < static_cast<int>(sizeof buf)) {
    len += std::snprintf(buf + len, sizeof buf - static_cast<std::size_t>(len),
                         " v=%llu", static_cast<unsigned long long>(version));
  }
  if (sim_us != 0 && len > 0 && len < static_cast<int>(sizeof buf)) {
    len += std::snprintf(buf + len, sizeof buf - static_cast<std::size_t>(len),
                         " t_sim=%lluus",
                         static_cast<unsigned long long>(sim_us));
  }
  return buf;
}

Journal::Ring& Journal::local_ring() {
  if (t_ring_ != nullptr) return *t_ring_;
  std::lock_guard<std::mutex> lock(mu_);
  rings_.push_back(std::make_unique<Ring>());
  Ring& r = *rings_.back();
  r.buf.resize(capacity_);
  t_ring_ = &r;
  return r;
}

void Journal::record(Subsystem s, EventKind k, std::uint32_t stream, int node,
                     int arc, std::int64_t aux, std::uint64_t version,
                     std::uint64_t sim_us) noexcept {
  if (!journal_enabled()) return;
  Ring& r = local_ring();
  JournalRecord rec;
  rec.seq = 1 + seq_.fetch_add(1, std::memory_order_relaxed);
  rec.t_ns = static_cast<std::uint64_t>(
      steady_now_ns() - epoch_ns_.load(std::memory_order_relaxed));
  rec.sim_us = sim_us;
  rec.version = version;
  rec.aux = aux;
  rec.stream = stream;
  rec.node = node;
  rec.arc = arc;
  rec.subsystem = s;
  rec.kind = k;
  recorded_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(r.mu);
  if (r.buf.empty()) {  // capacity 0: count, keep nothing
    ++r.dropped;
    return;
  }
  if (r.count == r.buf.size()) {
    ++r.dropped;  // overwrite the oldest: newest history wins
  } else {
    ++r.count;
  }
  r.buf[r.next] = rec;
  r.next = (r.next + 1) % r.buf.size();
}

void Journal::collect(const Ring& r, std::vector<JournalRecord>& out) {
  // Caller holds r.mu. Oldest live record first.
  const std::size_t cap = r.buf.size();
  if (cap == 0 || r.count == 0) return;
  std::size_t at = (r.next + cap - r.count) % cap;
  for (std::size_t i = 0; i < r.count; ++i) {
    out.push_back(r.buf[at]);
    at = (at + 1) % cap;
  }
}

std::vector<JournalRecord> Journal::drain() {
  std::vector<JournalRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& rp : rings_) {
      std::lock_guard<std::mutex> rlock(rp->mu);
      collect(*rp, out);
      rp->count = 0;
      rp->next = 0;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const JournalRecord& a, const JournalRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::vector<JournalRecord> Journal::snapshot() const {
  std::vector<JournalRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& rp : rings_) {
      std::lock_guard<std::mutex> rlock(rp->mu);
      collect(*rp, out);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const JournalRecord& a, const JournalRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::uint64_t Journal::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& rp : rings_) {
    std::lock_guard<std::mutex> rlock(rp->mu);
    n += rp->dropped;
  }
  return n;
}

void Journal::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& rp : rings_) {
    std::lock_guard<std::mutex> rlock(rp->mu);
    rp->buf.assign(capacity_, JournalRecord{});
    rp->next = 0;
    rp->count = 0;
    rp->dropped = 0;
  }
  seq_.store(0, std::memory_order_relaxed);
  recorded_.store(0, std::memory_order_relaxed);
  epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  // Stream numbering restarts with the window: a deterministic run replayed
  // after reset() renders byte-identical describe() lines (streams allocated
  // before the reset keep their old — now possibly reused — ids).
  g_next_stream.store(0, std::memory_order_relaxed);
}

void Journal::set_capacity(std::size_t records) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = records;
}

Journal& journal() {
  static Journal* j = new Journal();  // leaked: outlives static destructors
  return *j;
}

std::uint32_t journal_next_stream() noexcept {
  return 1 + g_next_stream.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace mrt::obs
