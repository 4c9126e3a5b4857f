#include "mrt/obs/chrome_trace.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <tuple>

#include "mrt/obs/json.hpp"
#include "mrt/support/require.hpp"

namespace mrt::obs {
namespace {

constexpr int kWallPid = 1;
constexpr int kSimPid = 2;

bool is_sim(const JournalRecord& r) { return r.subsystem == Subsystem::Sim; }

bool is_begin(const JournalRecord& r) {
  return r.kind == EventKind::SolveBegin || r.kind == EventKind::UpdateBegin;
}

/// Instant name: short protocol names for Sim events, to_string otherwise.
const char* event_name(const JournalRecord& r) {
  if (is_sim(r)) {
    switch (r.kind) {
      case EventKind::MsgSend:
        return r.aux != 0 ? "advert" : "withdraw";
      case EventKind::Reselect:
        return "select";
      case EventKind::NodeCrash:
        return "crash";
      case EventKind::NodeRestart:
        return "restart";
      case EventKind::MsgLoss:
        return "loss";
      case EventKind::LinkDown:
        return "link down";
      case EventKind::LinkUp:
        return "link up";
      default:
        break;
    }
  }
  return to_string(r.kind);
}

/// A trace row: (pid, row kind, id). Ordering the map by this key groups
/// node rows, then arc rows, then stream rows within each process.
enum RowKind { kNodeRow, kArcRow, kStreamRow };
using Row = std::tuple<int, int, std::int64_t>;

Row row_of(const JournalRecord& r) {
  if (!is_sim(r)) return {kWallPid, kStreamRow, r.stream};
  const bool node_event = r.kind == EventKind::Reselect ||
                          r.kind == EventKind::NodeCrash ||
                          r.kind == EventKind::NodeRestart;
  return node_event ? Row{kSimPid, kNodeRow, r.node}
                    : Row{kSimPid, kArcRow, r.arc};
}

}  // namespace

void write_chrome_trace(std::ostream& out,
                        const std::vector<JournalRecord>& records) {
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  const std::size_t n = records.size();
  // One pass pairs every span begin with the next UpdateEnd of its stream,
  // finds the wall-clock origin, and collects the rows in use.
  std::vector<std::size_t> end_of(n, kNone);
  std::vector<bool> paired_end(n, false);
  std::map<std::uint32_t, std::size_t> open;  // stream -> unclosed begin
  std::uint64_t wall0 = std::numeric_limits<std::uint64_t>::max();
  std::map<Row, int> tids;
  for (std::size_t i = 0; i < n; ++i) {
    const JournalRecord& r = records[i];
    if (!is_sim(r)) wall0 = std::min(wall0, r.t_ns);
    if (r.kind == EventKind::QueueDepth) continue;  // a counter, not a row
    tids.emplace(row_of(r), 0);
    if (is_begin(r)) {
      open[r.stream] = i;  // an earlier unclosed begin stays an instant
    } else if (r.kind == EventKind::UpdateEnd) {
      const auto it = open.find(r.stream);
      if (it == open.end()) continue;
      end_of[it->second] = i;
      paired_end[i] = true;
      open.erase(it);
    }
  }
  int next_tid = 0;
  for (auto& [row, tid] : tids) tid = ++next_tid;

  const auto ts_us = [wall0](const JournalRecord& r) {
    return is_sim(r) ? static_cast<double>(r.sim_us)
                     : static_cast<double>(r.t_ns - wall0) / 1e3;
  };

  JsonWriter w(out);
  w.begin_object();
  w.key("traceEvents").begin_array();
  const auto metadata = [&w](const char* what, int pid, int tid,
                             const std::string& name) {
    w.begin_object();
    w.key("name").value(what);
    w.key("ph").value("M");
    w.key("pid").value(pid);
    w.key("tid").value(tid);
    w.key("args").begin_object().key("name").value(name).end_object();
    w.end_object();
  };
  metadata("process_name", kWallPid, 0, "wall-clock");
  metadata("process_name", kSimPid, 0, "sim-time");
  static const char* const kRowPrefix[] = {"node ", "arc ", "stream "};
  for (const auto& [row, tid] : tids) {
    const auto& [pid, kind, id] = row;
    metadata("thread_name", pid, tid, kRowPrefix[kind] + std::to_string(id));
  }

  for (std::size_t i = 0; i < n; ++i) {
    const JournalRecord& r = records[i];
    if (paired_end[i]) continue;  // drawn by its begin's span
    w.begin_object();
    if (r.kind == EventKind::QueueDepth) {
      w.key("name").value("queue depth");
      w.key("ph").value("C");
      w.key("ts").value(ts_us(r));
      w.key("pid").value(kSimPid);
      w.key("tid").value(0);
      w.key("args").begin_object().key("value").value(r.aux).end_object();
      w.end_object();
      continue;
    }
    const Row row = row_of(r);
    w.key("cat").value(to_string(r.subsystem));
    w.key("pid").value(std::get<0>(row));
    w.key("tid").value(tids.at(row));
    w.key("ts").value(ts_us(r));
    if (end_of[i] != kNone) {
      const JournalRecord& e = records[end_of[i]];
      const bool solve = r.kind == EventKind::SolveBegin;
      w.key("name").value(solve ? "solve" : "update");
      w.key("ph").value("X");
      w.key("dur").value(static_cast<double>(e.t_ns - r.t_ns) / 1e3);
      w.key("args").begin_object();
      w.key(solve ? "size" : "ops").value(r.aux);
      w.key("affected").value(e.aux);
      w.key("version").value(e.version);
    } else {
      w.key("name").value(event_name(r));
      w.key("ph").value("i");
      w.key("s").value("t");  // thread-scoped instant
      w.key("args").begin_object();
      w.key("seq").value(r.seq);
      if (r.node >= 0) w.key("node").value(r.node);
      if (r.arc >= 0) w.key("arc").value(r.arc);
      w.key("aux").value(r.aux);
      if (r.version != 0) w.key("version").value(r.version);
    }
    w.end_object();  // args
    w.end_object();
  }
  w.end_array();
  w.key("displayTimeUnit").value("ms");
  w.end_object();
  MRT_REQUIRE(w.complete());
}

bool write_chrome_trace_file(const std::string& path,
                             const std::vector<JournalRecord>& records) {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out, records);
  out << '\n';
  return static_cast<bool>(out);
}

}  // namespace mrt::obs
