// servebench — end-to-end and per-layer benchmark of the routing daemon.
//
// One process generates a seeded topology and a wire-encoded delta log,
// binds a serve::Daemon through a compile::WeightEngine, and drains the log
// one frame at a time through stream::BufferSource::next() and
// Daemon::apply() — the loop Daemon::drain runs — timing each frame from
// outside the library. After the timed drain it checks the table against a
// cold rib::RibSolver solve and the route-change digest against the values
// pinned below. servebench/README.md describes the workloads, the metrics
// and the layer model.
//
//   servebench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              [--out DIR]
//
// --trace 0 prints the end-to-end metrics. --trace 1 is the traced run: it
// times the public call of each layer on the same frames (shadow copies of
// dyn::DynNet and rib::RibSolver stand in for the layers the daemon hides),
// prints the per-layer metrics, and writes a Chrome trace-event file and a
// per-layer table into DIR. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every check passed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mrt/compile/engine.hpp"
#include "mrt/core/bases.hpp"
#include "mrt/core/combinators.hpp"
#include "mrt/dyn/delta.hpp"
#include "mrt/obs/obs.hpp"
#include "mrt/par/par.hpp"
#include "mrt/rib/rib.hpp"
#include "mrt/serve/serve.hpp"
#include "mrt/sim/scenario.hpp"
#include "mrt/stream/stream.hpp"
#include "mrt/stream/wire.hpp"

namespace {

using namespace mrt;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { Flap, Igp, HubCrash };

struct Workload {
  const char* name;
  Kind kind;
  int nodes;
  int extra_links;
  int columns;
  int threads;  // par pool size; 0 keeps the library's default
};

// Why each exists is in README.md. Every log is a sequence of pairs whose
// second frame undoes the first, so each pass over the log ends on the
// topology it started from.
//
// The two workloads BENCHMARK.json gates run on one thread. With the pool
// at the hardware thread count, every frame waits on worker wake-ups, and
// on a shared 4-vCPU VM those stretch with its load: a window's p90 on
// flap-gr512 swung from 1.2 to 4.1 ms. hubcrash-gr4k keeps the default pool,
// so work stealing over its four blocks is still measured.
constexpr Workload kWorkloads[] = {
    // Each arc of the hierarchy goes down and comes back up, once per pass.
    {"flap-gr512", Kind::Flap, 512, 384, 16, 1},
    // 512 arcs each get a different IGP cost, then their own back.
    {"igp-bgp512", Kind::Igp, 512, 384, 16, 1},
    // Each top-tier node (ids 1..64) crashes and restarts, once per pass.
    {"hubcrash-gr4k", Kind::HubCrash, 4096, 3072, 32, 0},
};

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kIgpArcsPerPass = 512;
constexpr int kHubs = 64;
constexpr int kIgpMaxCost = 9;
// Fresh binds before the timed drain, and again after it. Each set runs at
// least kBinds binds and kBindSeconds of them; setup_s is the median of both
// sets, so it samples the host at both ends of the run.
constexpr int kBinds = 15;
constexpr double kBindSeconds = 0.5;

// Route changes per pass and their digest, pinned for the default seed and
// the held-out seed. A run on any other seed checks that every pass repeats
// the first one.
struct Pinned {
  const char* workload;
  std::uint64_t seed;
  std::uint64_t changes;
  std::uint64_t digest;
};
constexpr Pinned kPinned[] = {
    {"flap-gr512", 1, 93450, 0x9b21997b46b5086cULL},
    {"flap-gr512", 2, 94244, 0x28fe5c3c0bd6fb89ULL},
    {"igp-bgp512", 1, 37500, 0x2ff9f1390de3f424ULL},
    {"igp-bgp512", 2, 29266, 0xac5bd625a4eaf22bULL},
    {"hubcrash-gr4k", 1, 998382, 0x8e1e7a014810abcbULL},
    {"hubcrash-gr4k", 2, 1063100, 0xb491b3a3f04e2101ULL},
};

struct Inputs {
  Scenario sc;
  std::vector<int> dests;
  std::vector<std::uint8_t> bytes;      // one pass of wire frames
  std::vector<std::size_t> frame_end;   // byte offset after each frame
  int frames() const { return static_cast<int>(frame_end.size()); }
};

Value igp_label(const Value& gr, std::int64_t cost) {
  return Value::pair(Value::pair(gr, Value::integer(1)), Value::integer(cost));
}

std::vector<int> spread_dests(int n, int k) {
  std::vector<int> d;
  for (int i = 0; i < k; ++i) {
    d.push_back(static_cast<int>((static_cast<long>(i) * n) / k));
  }
  return d;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Rng rng(par::mix_seed(seed, static_cast<std::uint64_t>(w.kind)));
  Scenario sc = gao_rexford_hierarchy(rng, w.nodes, w.extra_links);
  const int m = sc.net.graph().num_arcs();
  std::vector<int> arcs(static_cast<std::size_t>(m));
  std::iota(arcs.begin(), arcs.end(), 0);
  std::vector<dyn::TopologyDelta> log;
  auto push = [&](dyn::TopologyDelta d) { log.push_back(std::move(d)); };

  switch (w.kind) {
    case Kind::Flap:
      rng.shuffle(arcs);
      for (int a : arcs) {
        push(dyn::TopologyDelta().arc_down(a));
        push(dyn::TopologyDelta().arc_up(a));
      }
      break;
    case Kind::Igp: {
      // examples/bgp_decision's ladder: relationship, then AS hops, then a
      // hot-potato IGP cost in [1, kIgpMaxCost] on every arc.
      ValueVec labels;
      for (int id = 0; id < m; ++id) {
        labels.push_back(igp_label(sc.net.label(id), rng.range(1, kIgpMaxCost)));
      }
      sc.alg = lex(lex(gao_rexford_algebra(), ot_hop_count()),
                   ot_shortest_path(kIgpMaxCost));
      sc.net = LabeledGraph(sc.net.graph(), std::move(labels));
      sc.origin = igp_label(Value::integer(0), 0);
      rng.shuffle(arcs);
      arcs.resize(std::min<std::size_t>(arcs.size(), kIgpArcsPerPass));
      for (int a : arcs) {
        const Value& old = sc.net.label(a);
        const std::int64_t cost = old.second().as_int();
        // Draw from the other kIgpMaxCost - 1 costs: a frame that kept the
        // cost would change nothing and take the daemon's no-op path.
        std::int64_t fresh = rng.range(1, kIgpMaxCost - 1);
        if (fresh >= cost) ++fresh;
        push(dyn::TopologyDelta().relabel(a, igp_label(old.first().first(), fresh)));
        push(dyn::TopologyDelta().relabel(a, old));
      }
      break;
    }
    case Kind::HubCrash: {
      std::vector<int> hubs(kHubs);
      std::iota(hubs.begin(), hubs.end(), 1);
      rng.shuffle(hubs);
      for (int h : hubs) {
        push(dyn::TopologyDelta().node_down(h));
        push(dyn::TopologyDelta().node_up(h));
      }
      break;
    }
  }

  Inputs in{std::move(sc), spread_dests(w.nodes, w.columns), {}, {}};
  for (const dyn::TopologyDelta& d : log) {
    stream::encode_delta(d, in.bytes);
    in.frame_end.push_back(in.bytes.size());
  }
  return in;
}

// ---------------------------------------------------------------------------
// Measurement helpers

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Nearest-rank quantile of sorted samples.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

// Peak resident set of this process image, from /proc/self/status. Unlike
// getrusage's ru_maxrss, VmHWM does not carry the parent's high-water mark
// across exec.
double vm_hwm_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double ru_maxrss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Reference clock
//
// The clock rate of this VM's vCPUs moves with the host's load. A fixed
// chain of dependent integer operations, whose cycle count does not depend
// on memory or on the library, took 48-57 us from one run to the next, and
// the daemon's rate moved with it (README §7). So the harness times that
// chain between frames and scales each window's figures, and each bind, to
// the clock at which the chain takes kClockRefUs: the timings are wall-clock
// times converted to one fixed clock, as a cycle count would be.

constexpr double kClockRefUs = 50.0;
// Frames per clock probe in the timed drain.
constexpr int kClockEvery = 4;

// Microseconds the chain takes on this thread, now.
double clock_probe_us() {
  static volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x += static_cast<std::uint64_t>(i);
  }
  const Clock::time_point t1 = Clock::now();
  sink = x;
  return micros(t0, t1);
}

// ---------------------------------------------------------------------------
// The daemon under test and its cold bind

struct Bound {
  std::unique_ptr<compile::WeightEngine> engine;
  std::unique_ptr<serve::Daemon> daemon;
};

// Each bind's times at the reference clock, and its total as the wall clock
// read it.
struct BindTimes {
  std::vector<double> engine_s;
  std::vector<double> start_s;
  std::vector<double> total_s;
  std::vector<double> total_wall_s;
};

// Fresh binds until kBinds have run and kBindSeconds have passed; the last
// one stays bound. Each is scaled by the mean of the clock probes either
// side of it.
Bound bind(const Inputs& in, BindTimes& t) {
  Bound b;
  const Clock::time_point start = Clock::now();
  double before = clock_probe_us();
  for (int i = 0; i < kBinds || seconds_between(start, Clock::now()) < kBindSeconds; ++i) {
    b.daemon.reset();
    b.engine.reset();
    const Clock::time_point t0 = Clock::now();
    b.engine = std::make_unique<compile::WeightEngine>(in.sc.alg);
    const Clock::time_point t1 = Clock::now();
    b.daemon = std::make_unique<serve::Daemon>(in.sc.alg, b.engine.get());
    b.daemon->start(in.sc.net, in.dests, in.sc.origin);
    const Clock::time_point t2 = Clock::now();
    const double after = clock_probe_us();
    const double scale = kClockRefUs / (0.5 * (before + after));
    before = after;
    t.engine_s.push_back(scale * seconds_between(t0, t1));
    t.start_s.push_back(scale * seconds_between(t1, t2));
    t.total_s.push_back(scale * seconds_between(t0, t2));
    t.total_wall_s.push_back(seconds_between(t0, t2));
  }
  return b;
}

// ---------------------------------------------------------------------------
// The frame feed: cycles over the log, one BufferSource per pass.

class Feed {
 public:
  explicit Feed(const Inputs& in) : in_(in) {}

  std::uint64_t index() const { return g_; }
  int in_pass() const { return static_cast<int>(g_ % frames()); }
  std::size_t frame_bytes(int k) const {
    const std::size_t begin = k == 0 ? 0 : in_.frame_end[static_cast<std::size_t>(k) - 1];
    return in_.frame_end[static_cast<std::size_t>(k)] - begin;
  }

  // Opens the pass's source when the next frame is its first; call outside
  // the timed region.
  void prepare() {
    if (in_pass() == 0) src_.emplace(in_.bytes);
  }

  // Decodes the next frame. On a decode failure it returns nullopt and
  // resumes at the following frame, whose offset the log records.
  std::optional<dyn::TopologyDelta> next() {
    const int k = in_pass();
    std::optional<dyn::TopologyDelta> d = src_->next();
    if (!d) {
      src_.emplace(std::vector<std::uint8_t>(
          in_.bytes.begin() + static_cast<std::ptrdiff_t>(in_.frame_end[static_cast<std::size_t>(k)]),
          in_.bytes.end()));
    }
    ++g_;
    return d;
  }

 private:
  std::uint64_t frames() const { return static_cast<std::uint64_t>(in_.frames()); }

  const Inputs& in_;
  std::optional<stream::BufferSource> src_;
  std::uint64_t g_ = 0;
};

// ---------------------------------------------------------------------------
// Output checks

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  return par::mix_seed(h, x);
}

// Folds every RouteChange of a pass into a digest and compares each
// completed pass with the first one and, where pinned, with kPinned.
class PassCheck {
 public:
  PassCheck(const Workload& w, std::uint64_t seed) {
    for (const Pinned& p : kPinned) {
      if (std::strcmp(p.workload, w.name) == 0 && p.seed == seed) pinned_ = p;
    }
  }

  void fold(int frame_in_pass, const serve::RouteChange& rc) {
    std::uint64_t h = mix(digest_, static_cast<std::uint64_t>(frame_in_pass));
    h = mix(h, static_cast<std::uint64_t>(rc.column));
    h = mix(h, static_cast<std::uint64_t>(rc.node));
    h = mix(h, (rc.had_route ? 1u : 0u) | (rc.has_route ? 2u : 0u));
    digest_ = mix(h, static_cast<std::uint64_t>(rc.next_arc + 1));
    ++changes_;
  }

  void end_pass() {
    if (passes_ == 0) {
      first_changes_ = changes_;
      first_digest_ = digest_;
      if (pinned_ && (pinned_->changes != changes_ || pinned_->digest != digest_)) {
        std::fprintf(stderr,
                     "servebench: pass 0 gave %" PRIu64 " route changes, digest "
                     "0x%016" PRIx64 "; pinned %" PRIu64 ", 0x%016" PRIx64 "\n",
                     changes_, digest_, pinned_->changes, pinned_->digest);
        ok_ = false;
      }
    } else if (changes_ != first_changes_ || digest_ != first_digest_) {
      std::fprintf(stderr, "servebench: pass %" PRIu64 " differs from pass 0\n",
                   passes_);
      ok_ = false;
    }
    ++passes_;
    changes_ = 0;
    digest_ = kInit;
  }

  bool ok() const { return ok_ && passes_ > 0; }
  std::uint64_t passes() const { return passes_; }
  bool pinned() const { return pinned_.has_value(); }
  std::uint64_t first_changes() const { return first_changes_; }
  std::uint64_t first_digest() const { return first_digest_; }

 private:
  static constexpr std::uint64_t kInit = 0xcbf29ce484222325ULL;
  std::optional<Pinned> pinned_;
  std::uint64_t digest_ = kInit;
  std::uint64_t changes_ = 0;
  std::uint64_t first_digest_ = 0;
  std::uint64_t first_changes_ = 0;
  std::uint64_t passes_ = 0;
  bool ok_ = true;
};

bool same_routing(const Routing& a, const Routing& b) {
  if (a.weight.size() != b.weight.size()) return false;
  for (std::size_t v = 0; v < a.weight.size(); ++v) {
    if (a.weight[v].has_value() != b.weight[v].has_value()) return false;
    if (a.weight[v] && !(*a.weight[v] == *b.weight[v])) return false;
    if (a.next_arc[v] != b.next_arc[v]) return false;
  }
  return true;
}

// The drain ends on the generated topology; the daemon's table must equal a
// cold solve of it, column by column.
bool table_matches_cold(const Inputs& in, const Bound& b) {
  const dyn::DynNet& net = b.daemon->rib().net();
  const int m = in.sc.net.graph().num_arcs();
  for (int a = 0; a < m; ++a) {
    if (!net.arc_admin_up(a) || !(net.label(a) == in.sc.net.label(a))) {
      std::fprintf(stderr, "servebench: arc %d does not end as generated\n", a);
      return false;
    }
  }
  for (int v = 0; v < in.sc.net.num_nodes(); ++v) {
    if (!net.node_up(v)) {
      std::fprintf(stderr, "servebench: node %d does not end up\n", v);
      return false;
    }
  }
  rib::RibSolver cold(in.sc.alg, b.engine.get());
  cold.solve(in.sc.net, in.dests, in.sc.origin);
  for (int c = 0; c < cold.num_columns(); ++c) {
    if (!same_routing(b.daemon->rib().routing(c), cold.routing(c))) {
      std::fprintf(stderr, "servebench: column %d differs from a cold solve\n", c);
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// The drain loop

struct Args {
  const Workload* w = nullptr;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 50.0;
  bool trace = false;
  std::string out = ".";
};

struct Run {
  Run(const Args& a, const Inputs& in, Bound& b)
      : in(in), b(b), feed(in), check(*a.w, a.seed) {
    sink = [this](const serve::RouteChange& rc) { check.fold(cur_, rc); };
  }

  // BufferSource::next() for the next frame; nullopt when it fails to
  // decode, which the run counts and goes on from.
  std::optional<dyn::TopologyDelta> decode() {
    cur_ = feed.in_pass();
    std::optional<dyn::TopologyDelta> d = feed.next();
    ++attempted;
    if (!d) ++failed;
    return d;
  }

  // Daemon::apply() with the digest sink attached. A throw counts as a
  // failed frame and the run goes on.
  bool apply(const std::optional<dyn::TopologyDelta>& d) {
    if (!d) return false;
    try {
      b.daemon->apply(*d, sink);
      return true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "servebench: frame %" PRIu64 " threw: %s\n",
                   feed.index() - 1, e.what());
      ++failed;
      return false;
    }
  }

  // Bookkeeping after a frame, outside the timed region.
  void after_step(bool ok) {
    const rib::RibStats& st = b.daemon->rib().last_update();
    if (ok && (st.changed_arcs == 0 || st.cold)) {
      std::fprintf(stderr,
                   "servebench: frame %" PRIu64 " %s; the workload is "
                   "degenerate and the run is void\n",
                   feed.index() - 1,
                   st.cold ? "fell back to a cold solve" : "changed no arc");
      std::exit(2);
    }
    if (feed.in_pass() == 0) check.end_pass();
  }

  // The warm-up prefix: the first eighth of a pass, whole pairs.
  int warm_up_frames() const { return in.frames() / 16 * 2; }

  void warm_up() {
    for (int i = 0; i < warm_up_frames(); ++i) {
      feed.prepare();
      after_step(apply(decode()));
    }
  }

  // A window's rate, p50 and p90.
  struct Figures {
    double per_s = 0.0;   // frames / the summed latencies of its frames
    double p50_us = 0.0;  // nearest-rank over the window's frame latencies
    double p90_us = 0.0;
  };

  // A window is one pass of the log, starting after the warm-up: every
  // window holds the same frames, in the same order, and ends on a pair
  // boundary. Only its summary is kept, so the harness's memory does not
  // grow with the run.
  struct Window {
    Figures wall;     // as the wall clock read them
    double clock_us;  // the window's median clock probe
    // The figures at the reference clock.
    Figures ref() const {
      const double scale = kClockRefUs / clock_us;
      return {wall.per_s / scale, wall.p50_us * scale, wall.p90_us * scale};
    }
  };

  // Drains whole windows until `seconds` have passed, timing the clock
  // probe before every kClockEvery-th frame. A window's rate counts the
  // wall-clock time of its frames and leaves out the harness's work
  // between them.
  void timed(double seconds) {
    const std::size_t n = static_cast<std::size_t>(in.frames());
    std::vector<double> samples_us(n);
    std::vector<double> clock_us;
    const Clock::time_point start = Clock::now();
    do {
      clock_us.clear();
      for (std::size_t k = 0; k < n; ++k) {
        if (k % kClockEvery == 0) clock_us.push_back(clock_probe_us());
        feed.prepare();
        const Clock::time_point t0 = Clock::now();
        const bool ok = apply(decode());
        samples_us[k] = micros(t0, Clock::now());
        after_step(ok);
      }
      const double total_us = std::accumulate(samples_us.begin(), samples_us.end(), 0.0);
      std::sort(samples_us.begin(), samples_us.end());
      windows.push_back({{1e6 * static_cast<double>(n) / total_us,
                          quantile(samples_us, 0.5), quantile(samples_us, 0.9)},
                         median(clock_us)});
    } while (seconds_between(start, Clock::now()) < seconds);
  }

  const Inputs& in;
  Bound& b;
  Feed feed;
  PassCheck check;
  serve::Daemon::ChangeSink sink;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Window> windows;

 private:
  int cur_ = 0;
};

using Metrics = std::vector<std::pair<std::string, std::pair<double, const char*>>>;

void print_result(bool correct, const Run& r, const Metrics& metrics) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    o << (i ? ", " : "") << "\"" << metrics[i].first << "\": {\"value\": "
      << num(metrics[i].second.first) << ", \"unit\": \""
      << metrics[i].second.second << "\"}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

void print_header(const Args& a, const Inputs& in, const Bound& b) {
  std::printf("servebench %s seed=%" PRIu64 " nodes=%d arcs=%d columns=%zu "
              "frames/pass=%d flat=%d\n",
              a.w->name, a.seed, in.sc.net.num_nodes(),
              in.sc.net.graph().num_arcs(), in.dests.size(), in.frames(),
              b.daemon->rib().batched_flat() ? 1 : 0);
  std::printf("threads.hardware = %d\nthreads.effective = %d\n",
              par::hardware_threads(), par::thread_limit());
}

bool verify(Run& r) {
  bool ok = r.check.ok() && r.failed == 0;
  if (r.b.daemon->stats().cold_updates != 0) {
    std::fprintf(stderr, "servebench: %" PRIu64 " updates fell back to cold\n",
                 r.b.daemon->stats().cold_updates);
    ok = false;
  }
  ok = table_matches_cold(r.in, r.b) && ok;
  std::printf("check: route changes/pass = %" PRIu64 ", digest = 0x%016" PRIx64
              " (%s), passes = %" PRIu64 ", outputs correct: %s\n",
              r.check.first_changes(), r.check.first_digest(),
              r.check.pinned() ? "pinned" : "pass-consistent",
              r.check.passes(), ok ? "yes" : "NO");
  const double ratio = r.attempted ? static_cast<double>(r.failed) /
                                         static_cast<double>(r.attempted)
                                   : 0.0;
  std::printf("fail_ratio = %s (%" PRIu64 "/%" PRIu64 ")\n", num(ratio).c_str(),
              r.failed, r.attempted);
  return ok;
}

int run_end_to_end(const Args& a, const Inputs& in) {
  BindTimes bt;
  Bound b = bind(in, bt);
  print_header(a, in, b);
  Run r(a, in, b);
  r.warm_up();
  r.timed(a.seconds);
  const double hwm = vm_hwm_mb();
  const double maxrss = ru_maxrss_mb();

  // Each timing is the median over the windows of that window's figure at
  // the reference clock; the wall clock's are printed in brackets.
  std::vector<double> rate, p50s, p90s, wall_rate, wall_p50s, wall_p90s;
  for (const Run::Window& w : r.windows) {
    const Run::Figures ref = w.ref();
    rate.push_back(ref.per_s);
    p50s.push_back(ref.p50_us);
    p90s.push_back(ref.p90_us);
    wall_rate.push_back(w.wall.per_s);
    wall_p50s.push_back(w.wall.p50_us);
    wall_p90s.push_back(w.wall.p90_us);
  }
  const double per_s = median(rate);
  const double p50 = median(p50s);
  const double p90 = median(p90s);
  const std::size_t n = static_cast<std::size_t>(in.frames());
  std::printf("timed windows = %zu of n=%zu frames each; figures are the "
              "median window's at the reference clock (probe = %.0f us), "
              "the wall clock's in brackets\n",
              r.windows.size(), n, kClockRefUs);
  for (std::size_t i = 0; i < r.windows.size(); ++i) {
    std::printf("  window %zu: %.2f 1/s, p50 %.2f us, p90 %.2f us [%.2f 1/s, "
                "p50 %.2f us, p90 %.2f us], clock probe %.2f us\n",
                i, rate[i], p50s[i], p90s[i], wall_rate[i], wall_p50s[i],
                wall_p90s[i], r.windows[i].clock_us);
  }
  std::printf("deltas_per_s = %.2f 1/s [%.2f]\n", per_s, median(wall_rate));
  std::printf("update_p50_us = %.2f us [%.2f] (n=%zu per window)\n", p50,
              median(wall_p50s), n);
  std::printf("update_p90_us = %.2f us [%.2f] (n=%zu per window, %zu beyond)\n",
              p90, median(wall_p90s), n,
              n - static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(n))));
  std::printf("peak_rss_mb = %.3f MB (VmHWM; ru_maxrss = %.3f MB)\n", hwm,
              maxrss);

  const bool ok = verify(r);
  b.daemon.reset();
  b.engine.reset();
  bind(in, bt);
  const double setup = median(bt.total_s);
  std::printf("setup_s = %.6f s [%.6f] (median of %zu binds, before and after "
              "the drain)\n",
              setup, median(bt.total_wall_s), bt.total_s.size());
  print_result(ok, r,
               {{"deltas_per_s", {per_s, "1/s"}},
                {"update_p50_us", {p50, "us"}},
                {"update_p90_us", {p90, "us"}},
                {"setup_s", {setup, "s"}},
                {"peak_rss_mb", {hwm, "MB"}}});
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// The traced run

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;  // index of the frame span, -1 for a frame span itself
  std::uint64_t frame;
};

struct FrameRec {
  double decode_us, dyn_us, rib_us, materialize_us, serve_us;
  double frame_bytes, changed_arcs, affected, relaxations, route_changes;
  double decode_calls, relabels;
};

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  f << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n"
       "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
       "\"args\": {\"name\": \"servebench\"}}";
  char buf[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"frame\": %" PRIu64 ", \"span\": %zu, "
                  "\"parent\": %d}}",
                  s.name, s.parent < 0 ? "frame" : "layer",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.frame,
                  i, s.parent);
    f << buf;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

int run_traced(const Args& a, const Inputs& in) {
  BindTimes bt;
  Bound b = bind(in, bt);
  print_header(a, in, b);
  const Clock::time_point run_start = Clock::now();
  Run r(a, in, b);
  r.warm_up();

  // Untraced baseline for the overhead ratio: one whole pass, daemon only,
  // registry off, exactly as the end-to-end run drives it.
  std::vector<double> untraced_us;
  for (int i = 0; i < in.frames(); ++i) {
    r.feed.prepare();
    const std::optional<dyn::TopologyDelta> d = r.decode();
    const Clock::time_point t0 = Clock::now();
    const bool ok = r.apply(d);
    untraced_us.push_back(micros(t0, Clock::now()));
    r.after_step(ok);
  }

  // Shadows of the layers the daemon hides, bound to the same topology (the
  // drain sits on a pair boundary) and fed the same frames.
  dyn::DynNet shadow_net(in.sc.net);
  rib::RibSolver shadow_rib(in.sc.alg, b.engine.get());
  shadow_rib.solve(in.sc.net, in.dests, in.sc.origin);

  obs::registry().reset();
  obs::set_enabled(true);
  obs::Counter& decodes = obs::registry().counter("compile.decode_calls");
  obs::Counter& relabels = obs::registry().counter("compile.labels_recompiled");

  std::vector<Span> spans;
  std::vector<FrameRec> recs;
  const Clock::time_point epoch = Clock::now();
  auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch).count();
  };
  auto traced_frame = [&](bool record) {
    r.feed.prepare();
    const std::uint64_t g = r.feed.index();
    const std::size_t bytes = r.feed.frame_bytes(r.feed.in_pass());
    const Clock::time_point t0 = Clock::now();
    const std::optional<dyn::TopologyDelta> d = r.decode();
    const Clock::time_point t1 = Clock::now();
    if (!d) {
      r.after_step(false);
      return;
    }
    shadow_net.apply(*d);
    const Clock::time_point t2 = Clock::now();
    shadow_rib.update(*d);
    const Clock::time_point t3 = Clock::now();
    for (int c = 0; c < shadow_rib.num_columns(); ++c) shadow_rib.routing(c);
    const Clock::time_point t4 = Clock::now();
    const std::uint64_t dc0 = decodes.value();
    const std::uint64_t rl0 = relabels.value();
    const std::uint64_t ch0 = b.daemon->stats().route_changes;
    const bool ok = r.apply(d);
    const Clock::time_point t5 = Clock::now();
    if (record && ok) {
      const rib::RibStats& st = b.daemon->rib().last_update();
      recs.push_back(FrameRec{
          micros(t0, t1), micros(t1, t2), micros(t2, t3), micros(t3, t4),
          micros(t4, t5), static_cast<double>(bytes),
          static_cast<double>(st.changed_arcs),
          static_cast<double>(st.affected_total()),
          static_cast<double>(st.relaxations),
          static_cast<double>(b.daemon->stats().route_changes - ch0),
          static_cast<double>(decodes.value() - dc0),
          static_cast<double>(relabels.value() - rl0)});
      const int parent = static_cast<int>(spans.size());
      spans.push_back({"frame", ns(t0), ns(t5), -1, g});
      spans.push_back({"stream.next", ns(t0), ns(t1), parent, g});
      spans.push_back({"dyn.apply", ns(t1), ns(t2), parent, g});
      spans.push_back({"rib.update", ns(t2), ns(t3), parent, g});
      spans.push_back({"rib.materialize", ns(t3), ns(t4), parent, g});
      spans.push_back({"serve.apply", ns(t4), ns(t5), parent, g});
    }
    r.after_step(ok);
  };

  // Traced: a warm-up prefix for the shadows, then whole passes until the
  // run's seconds are spent, so the frames match the untraced pass.
  for (int i = 0; i < r.warm_up_frames(); ++i) traced_frame(false);
  do {
    for (int i = 0; i < in.frames(); ++i) traced_frame(true);
  } while (seconds_between(run_start, Clock::now()) < a.seconds);
  obs::set_enabled(false);

  bool ok = verify(r);
  for (int c = 0; c < shadow_rib.num_columns(); ++c) {
    if (!same_routing(shadow_rib.routing(c), b.daemon->rib().routing(c))) {
      std::fprintf(stderr, "servebench: shadow column %d differs\n", c);
      ok = false;
    }
  }

  const double n = static_cast<double>(recs.size());
  auto avg = [&](double FrameRec::*f) {
    double s = 0.0;
    for (const FrameRec& x : recs) s += x.*f;
    return n > 0 ? s / n : 0.0;
  };
  std::vector<double> serve_sorted;
  for (const FrameRec& x : recs) serve_sorted.push_back(x.serve_us);
  std::sort(serve_sorted.begin(), serve_sorted.end());

  const double cells = static_cast<double>(in.sc.net.num_nodes()) *
                       static_cast<double>(in.dests.size());
  const double decode_us = avg(&FrameRec::decode_us);
  const double dyn_us = avg(&FrameRec::dyn_us);
  const double rib_us = avg(&FrameRec::rib_us);
  const double mat_us = avg(&FrameRec::materialize_us);
  const double serve_us = avg(&FrameRec::serve_us);
  const double rib_self = rib_us - dyn_us;
  const double serve_self = serve_us - rib_us;
  const double compare_us = serve_self - mat_us;
  const double affected = avg(&FrameRec::affected);
  const double relax = avg(&FrameRec::relaxations);
  const double changes = avg(&FrameRec::route_changes);
  const serve::ServeStats& ss = b.daemon->stats();
  const double warm_share =
      static_cast<double>(ss.warm_updates) /
      static_cast<double>(std::max<std::uint64_t>(1, ss.warm_updates + ss.cold_updates));
  const double blocks = std::ceil(static_cast<double>(in.dests.size()) /
                                  static_cast<double>(rib::kBlockCols));
  const double overhead = 100.0 * (serve_us / mean(untraced_us) - 1.0);

  const Metrics m = {
      {"stream.decode_us", {decode_us, "us"}},
      {"stream.frame_bytes", {avg(&FrameRec::frame_bytes), "bytes"}},
      {"dyn.apply_us", {dyn_us, "us"}},
      {"dyn.changed_arcs", {avg(&FrameRec::changed_arcs), "count"}},
      {"rib.update_us", {rib_us, "us"}},
      {"rib.self_us", {rib_self, "us"}},
      {"rib.affected_per_delta", {affected, "count"}},
      {"rib.affected_frac", {affected / cells, "ratio"}},
      {"rib.relax_per_delta", {relax, "count"}},
      {"rib.relax_per_affected", {affected > 0 ? relax / affected : 0.0, "ratio"}},
      {"rib.warm_share", {warm_share, "ratio"}},
      {"rib.materialize_us", {mat_us, "us"}},
      {"compile.decode_per_delta", {avg(&FrameRec::decode_calls), "count"}},
      {"serve.apply_us", {serve_us, "us"}},
      {"serve.self_us", {serve_self, "us"}},
      {"serve.compare_us", {compare_us, "us"}},
      {"serve.route_changes_per_delta", {changes, "count"}},
      {"serve.diff_yield", {changes / cells, "ratio"}},
      {"serve.apply_p99_us", {quantile(serve_sorted, 0.99), "us"}},
      {"serve.apply_samples", {n, "count"}},
      {"setup.engine_ms", {median(bt.engine_s) * 1e3, "ms"}},
      {"setup.bind_ms", {median(bt.start_s) * 1e3, "ms"}},
      {"compile.relabels_per_delta", {avg(&FrameRec::relabels), "count"}},
      {"par.blocks", {blocks, "count"}},
      {"trace.overhead_pct", {overhead, "%"}},
      {"threads.hardware", {static_cast<double>(par::hardware_threads()), "count"}},
      {"threads.effective", {static_cast<double>(par::thread_limit()), "count"}},
  };

  // The per-layer table: each layer's self time per frame and its share of
  // Daemon::apply, which the four middle rows partition.
  std::ostringstream t;
  char line[200];
  auto row = [&](const char* layer, const char* call, double us, bool share) {
    std::snprintf(line, sizeof line, "%-12s %-34s %10.2f  %s\n", layer, call, us,
                  share ? (num(100.0 * us / serve_us).substr(0, 5) + " %").c_str()
                        : "-");
    t << line;
  };
  std::snprintf(line, sizeof line, "%-12s %-34s %10s  %s\n", "layer",
                "self time of", "us/frame", "share of Daemon::apply");
  t << "servebench " << a.w->name << " seed=" << a.seed << ", traced frames "
    << recs.size() << "\n" << line;
  row("stream", "BufferSource::next", decode_us, false);
  row("dyn", "DynNet::apply", dyn_us, true);
  row("rib", "RibSolver::update - dyn", rib_self, true);
  row("rib>compile", "sum_c RibSolver::routing(c)", mat_us, true);
  row("serve", "Daemon::apply - update - routing", compare_us, true);
  row("serve", "Daemon::apply (total)", serve_us, true);
  t << "largest part of Daemon::apply: "
    << (rib_us >= serve_self ? "rib.update_us" : "serve.self_us") << " ("
    << num(std::max(rib_us, serve_self)) << " us)\n";
  for (const auto& [name, v] : m) {
    t << name << " = " << num(v.first) << " " << v.second << "\n";
  }
  std::cout << t.str();

  std::filesystem::create_directories(a.out);
  const std::string stem = a.out + "/" + a.w->name + "-seed" + std::to_string(a.seed);
  std::ofstream(stem + "-layers.txt") << t.str();
  if (!write_chrome_trace(stem + "-trace.json", spans)) {
    std::fprintf(stderr, "servebench: cannot write %s-trace.json\n", stem.c_str());
    ok = false;
  }
  std::printf("trace: %s-trace.json (%zu spans), table: %s-layers.txt\n",
              stem.c_str(), spans.size(), stem.c_str());

  print_result(ok, r, m);
  return ok ? 0 : 1;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--out DIR]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.w = find_workload(v);
      if (!a.w) return usage(("unknown workload " + v).c_str());
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end) return usage("--seed takes a whole number");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end || !(a.seconds > 0.0)) return usage("--seconds takes a positive number");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else {
      return usage(("unknown argument " + k).c_str());
    }
  }
  if (!a.w) return usage("--workload is required");

  if (a.w->threads > 0) par::set_thread_limit(a.w->threads);
  try {
    const Inputs in = make_inputs(*a.w, a.seed);
    return a.trace ? run_traced(a, in) : run_end_to_end(a, in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
