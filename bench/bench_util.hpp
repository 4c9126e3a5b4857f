// Shared plumbing for the experiment harnesses: each bench regenerates one
// of the paper's figures/tables as a measured census and prints it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <utility>

#include "mrt/core/bases.hpp"
#include "mrt/core/checker.hpp"
#include "mrt/core/combinators.hpp"
#include "mrt/core/inference.hpp"
#include "mrt/core/random_algebra.hpp"
#include "mrt/core/report.hpp"
#include "mrt/obs/obs.hpp"
#include "mrt/par/par.hpp"
#include "mrt/routing/labeled_graph.hpp"
#include "mrt/support/table.hpp"

namespace mrt::bench {

inline void banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// Algebra stacks of increasing lexicographic depth: shortest-path at the
/// front, alternating widest/shortest below. The shared deep-lex workload of
/// EXP-PERF and EXP-COMPILE, so their numbers stay directly comparable.
inline OrderTransform stacked(int depth) {
  OrderTransform alg = ot_shortest_path(6);
  for (int i = 1; i < depth; ++i) {
    alg = lex(alg, i % 2 == 0 ? ot_shortest_path(6) : ot_widest_path(6));
  }
  return alg;
}

/// The origin weight matching stacked(depth): 0 in every shortest component,
/// ∞ (unlimited capacity) in every widest component.
inline Value stacked_origin(int depth) {
  Value v = Value::integer(0);
  for (int i = 1; i < depth; ++i) {
    v = Value::pair(std::move(v),
                    i % 2 == 0 ? Value::integer(0) : Value::inf());
  }
  return v;
}

/// Best-of-`reps` wall time of `f`, in milliseconds.
template <typename F>
double time_ms(int reps, F&& f) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (ms < best) best = ms;
  }
  return best;
}

/// Best-of-`reps` wall times of two workloads, in milliseconds, timed in
/// alternating rounds: even rounds run `a` first, odd rounds `b` first. A
/// burst of host noise or a frequency step then lands on both sides alike
/// instead of on whichever side always ran second.
template <typename A, typename B>
std::pair<double, double> time_ab_ms(int reps, A&& a, B&& b) {
  double best_a = 1e300;
  double best_b = 1e300;
  for (int r = 0; r < reps; ++r) {
    if (r % 2 == 0) {
      best_a = std::min(best_a, time_ms(1, a));
      best_b = std::min(best_b, time_ms(1, b));
    } else {
      best_b = std::min(best_b, time_ms(1, b));
      best_a = std::min(best_a, time_ms(1, a));
    }
  }
  return {best_a, best_b};
}

inline std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

/// Byte identity of two routings: weight and witness arc at every node.
inline bool same_routing(const Routing& a, const Routing& b) {
  if (a.weight.size() != b.weight.size()) return false;
  for (std::size_t v = 0; v < a.weight.size(); ++v) {
    if (a.weight[v].has_value() != b.weight[v].has_value()) return false;
    if (a.weight[v] && !(*a.weight[v] == *b.weight[v])) return false;
    if (a.next_arc[v] != b.next_arc[v]) return false;
  }
  return true;
}

/// Extracts `--json <path>` or `--json=<path>` from argv (removing the
/// consumed arguments so downstream flag parsers — e.g. google-benchmark's —
/// never see them); falls back to the MRT_BENCH_JSON environment variable.
/// Returns "" when no output was requested.
inline std::string take_json_path(int& argc, char** argv) {
  std::string path;
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    if (std::strcmp(argv[r], "--json") == 0 && r + 1 < argc) {
      path = argv[++r];
    } else if (std::strncmp(argv[r], "--json=", 7) == 0) {
      path = argv[r] + 7;
    } else {
      argv[w++] = argv[r];
    }
  }
  argc = w;
  argv[argc] = nullptr;
  if (path.empty()) {
    if (const char* env = std::getenv("MRT_BENCH_JSON")) path = env;
  }
  return path;
}

/// Writes one BENCH_*.json-compatible record on destruction: the bench name,
/// wall time of the whole run, any explicitly attached metrics, and a
/// snapshot of the obs registry (counters + gauges). Construct it first
/// thing in main(); when a JSON path is requested it turns observability on
/// so the counters actually populate.
class JsonReport {
 public:
  JsonReport(std::string name, int& argc, char** argv)
      : name_(std::move(name)),
        path_(take_json_path(argc, argv)),
        t0_(std::chrono::steady_clock::now()) {
    if (active()) obs::set_enabled(true);
  }
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  bool active() const { return !path_.empty(); }

  /// Attaches an extra scalar to the record (e.g. a census total).
  void metric(const std::string& key, double v) { metrics_[key] = v; }

  ~JsonReport() {
    if (!active()) return;
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
            .count();
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "bench: cannot write " << path_ << "\n";
      return;
    }
    obs::JsonWriter w(out);
    w.begin_object();
    w.key("bench").value(name_);
    w.key("wall_s").value(wall_s);
    w.key("metrics").begin_object();
    for (const auto& [k, v] : metrics_) w.key(k).value(v);
    w.end_object();
    w.key("counters").begin_object();
    for (const auto& [k, v] : obs::registry().counters()) w.key(k).value(v);
    w.end_object();
    w.key("gauges").begin_object();
    for (const auto& [k, v] : obs::registry().gauges()) w.key(k).value(v);
    w.end_object();
    // Latency distributions (the journal PR's per-update()/per-run timers):
    // count/mean/max plus the log-2-bucket quantile estimates, so BENCH
    // trajectories track tails, not just totals.
    w.key("histograms").begin_object();
    for (const auto& [k, h] : obs::registry().histograms()) {
      w.key(k).begin_object();
      w.key("count").value(static_cast<std::uint64_t>(h->count()));
      w.key("mean").value(h->mean());
      w.key("max").value(static_cast<std::uint64_t>(h->max()));
      w.key("p50").value(h->quantile(0.50));
      w.key("p90").value(h->quantile(0.90));
      w.key("p99").value(h->quantile(0.99));
      w.end_object();
    }
    w.end_object();
    // Host parallelism context: BENCH trajectories are only comparable
    // across machines with this attached.
    w.key("threads").begin_object();
    w.key("hardware").value(par::hardware_threads());
    w.key("effective").value(par::thread_limit());
    w.end_object();
    w.end_object();
    out << '\n';
    // stderr, so census tables on stdout diff cleanly across runs.
    std::cerr << "bench: wrote JSON record to " << path_ << "\n";
  }

 private:
  std::string name_;
  std::string path_;
  std::chrono::steady_clock::time_point t0_;
  std::map<std::string, double> metrics_;
};

/// Agreement tally between a derived rule and the oracle.
struct Census {
  long both_true = 0;
  long both_false = 0;
  long rule_true_oracle_false = 0;   // unsoundness (must stay 0)
  long rule_false_oracle_true = 0;   // incompleteness of a "false" claim
  long undecided = 0;                // rule returned Unknown

  void tally(Tri rule, Tri oracle) {
    if (rule == Tri::Unknown || oracle == Tri::Unknown) {
      ++undecided;
    } else if (rule == Tri::True && oracle == Tri::True) {
      ++both_true;
    } else if (rule == Tri::False && oracle == Tri::False) {
      ++both_false;
    } else if (rule == Tri::True) {
      ++rule_true_oracle_false;
    } else {
      ++rule_false_oracle_true;
    }
  }

  long total() const {
    return both_true + both_false + rule_true_oracle_false +
           rule_false_oracle_true + undecided;
  }

  /// Accumulates another tally (the parallel_sweep chunk merge).
  void merge(const Census& o) {
    both_true += o.both_true;
    both_false += o.both_false;
    rule_true_oracle_false += o.rule_true_oracle_false;
    rule_false_oracle_true += o.rule_false_oracle_true;
    undecided += o.undecided;
  }

  std::vector<std::string> row(const std::string& label) const {
    return {label,
            std::to_string(total()),
            std::to_string(both_true),
            std::to_string(both_false),
            std::to_string(rule_true_oracle_false),
            std::to_string(rule_false_oracle_true),
            std::to_string(undecided)};
  }
};

inline Table census_table() {
  return Table({"rule", "samples", "agree:yes", "agree:no", "UNSOUND(yes/no)",
                "miss(no/yes)", "undecided"});
}

/// Iterations per parallel_sweep chunk: one census sample is itself heavy
/// (dozens of properties, thousands of tuples each), so small chunks keep
/// the pool balanced.
inline constexpr std::size_t kSweepGrain = 8;

/// Deterministic parallel census sweep: runs `body(rng, acc)` for each of
/// `n` iterations, each on an independent Rng seeded from (base_seed, i) via
/// par::mix_seed, accumulating into per-chunk `Acc`s merged in index order.
/// The table printed from the result is bit-identical for every MRT_THREADS
/// value, including 1 — the determinism contract of docs/PARALLELISM.md.
/// `Acc` needs a default constructor and `void merge(const Acc&)`.
template <typename Acc, typename Body>
Acc parallel_sweep(std::uint64_t base_seed, int n, Body&& body) {
  return par::parallel_reduce<Acc>(
      static_cast<std::size_t>(n), kSweepGrain, Acc{},
      [&](std::size_t b, std::size_t e, Acc& acc) {
        for (std::size_t i = b; i < e; ++i) {
          Rng rng(par::mix_seed(base_seed, i));
          body(rng, acc);
        }
      },
      [](Acc& into, Acc& from) { into.merge(from); });
}

}  // namespace mrt::bench
