#include "mrt/dyn/solver.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "mrt/obs/obs.hpp"
#include "mrt/routing/dijkstra.hpp"
#include "mrt/support/require.hpp"

namespace mrt {

namespace dyn {
namespace {

bool dyn_enabled_from_env() {
  const char* e = std::getenv("MRT_DYN");
  return e == nullptr || std::string(e) != "0";
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{dyn_enabled_from_env()};
  return flag;
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }
void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

void journal_delta(std::uint32_t stream, const TopologyDelta& delta,
                   const DynNet::Applied& ap, const DynNet& net) {
  if (!obs::journal_enabled()) return;
  using obs::EventKind;
  using obs::Subsystem;
  obs::jrecord(Subsystem::Dyn, EventKind::UpdateBegin, stream, -1, -1,
               static_cast<std::int64_t>(delta.ops.size()), net.version());
  for (int id : ap.changed_arcs) {
    const bool relabeled = std::binary_search(ap.relabeled_arcs.begin(),
                                              ap.relabeled_arcs.end(), id);
    obs::jrecord(Subsystem::Dyn,
                 relabeled ? EventKind::DeltaRelabel : EventKind::DeltaArc,
                 stream, net.graph().arc(id).src, id, net.arc_alive(id) ? 1 : 0,
                 net.version());
  }
  for (int v : ap.nodes_down) {
    obs::jrecord(Subsystem::Dyn, EventKind::DeltaNodeDown, stream, v, -1, 0,
                 net.version());
  }
  for (int v : ap.nodes_up) {
    obs::jrecord(Subsystem::Dyn, EventKind::DeltaNodeUp, stream, v, -1, 0,
                 net.version());
  }
}

}  // namespace dyn

namespace {

using dyn::DynNet;
using dyn::TopologyDelta;
using dyn::UpdateStats;
using obs::EventKind;
using obs::Subsystem;

/// Shared engine state: the bound problem, the current solution, and the
/// helpers both engines build their warm paths from — candidate scans,
/// transitive invalidation, and the canonicalization pass that gives cold
/// and warm runs a common normal form.
class EngineBase : public Solver {
 public:
  EngineBase(OrderTransform alg, const compile::WeightEngine* weng)
      : alg_(std::move(alg)), weng_(weng) {}

  const Routing& solve(const LabeledGraph& net, int dest,
                       const Value& origin) override {
    MRT_REQUIRE(dest >= 0 && dest < net.num_nodes());
    static obs::Histogram& solve_ns = obs::registry().histogram("dyn.solve_ns");
    obs::ScopedTimer timer(solve_ns);
    dnet_ = DynNet(net, alg_.fns);
    dest_ = dest;
    origin_ = origin;
    bound_ = true;
    // A fresh binding opens a fresh journal stream and resets the diff
    // baseline, so the cold solve journals every route as a new attach.
    jstream_ = obs::journal_next_stream();
    jprev_valid_ = false;
    obs::jrecord(Subsystem::Dyn, EventKind::SolveBegin, jstream_, dest_, -1,
                 dnet_.num_nodes());
    if (weng_ != nullptr) {
      cnet_ = compile::CompiledNet::make(*weng_, dnet_.net());
    } else {
      cnet_ = compile::CompiledNet();
    }
    begin_stats(/*cold=*/true, 0);
    cold_solve();
    stats_.affected = dnet_.num_nodes();
    finish_stats(/*is_update=*/false);
    journal_routing_diff();
    obs::jrecord(Subsystem::Dyn, EventKind::UpdateEnd, jstream_, -1, -1,
                 -static_cast<std::int64_t>(stats_.affected),
                 dnet_.version());
    return r_;
  }

  const Routing& update(const TopologyDelta& delta) override {
    MRT_REQUIRE(bound_);
    static obs::Histogram& update_ns =
        obs::registry().histogram("dyn.update_ns");
    obs::ScopedTimer timer(update_ns);
    const DynNet::Applied ap = dnet_.apply(delta);
    dyn::journal_delta(jstream_, delta, ap, dnet_);
    // Delta-aware re-encoding: only the relabeled arcs' programs recompile.
    for (int id : ap.relabeled_arcs) cnet_.relabel(id, dnet_.label(id));
    begin_stats(/*cold=*/false, ap.changed_arcs.size());
    if (!ap.any()) {
      finish_stats(/*is_update=*/true);
      obs::jrecord(Subsystem::Dyn, EventKind::UpdateEnd, jstream_, -1, -1, 0,
                   dnet_.version());
      return r_;
    }
    if (!dyn::enabled() || !converged_) {
      run_cold();
    } else {
      warm_update(ap);
      // The incremental pass hit its safety cap: the masked full solve is
      // the fallback (it terminates regardless of the algebra's properties
      // on the Dijkstra engine, and caps identically on Bellman).
      if (!converged_) run_cold();
    }
    finish_stats(/*is_update=*/true);
    journal_routing_diff();
    obs::jrecord(Subsystem::Dyn, EventKind::UpdateEnd, jstream_, -1, -1,
                 stats_.cold ? -static_cast<std::int64_t>(stats_.affected)
                             : static_cast<std::int64_t>(stats_.affected),
                 dnet_.version());
    return r_;
  }

  const Routing& routing() const override { return r_; }
  const dyn::DynNet& net() const override { return dnet_; }
  int dest() const override { return dest_; }
  std::uint32_t journal_stream() const override { return jstream_; }
  bool converged() const override { return converged_; }
  const UpdateStats& last_update() const override { return stats_; }

 protected:
  /// Full solve over the current masks; sets r_ and converged_.
  virtual void cold_solve() = 0;
  /// Incremental recomputation; sets r_, converged_, stats_.affected.
  virtual void warm_update(const DynNet::Applied& ap) = 0;

  void run_cold() {
    stats_.cold = true;
    cold_solve();
    stats_.affected = dnet_.num_nodes();
  }

  bool node_ok(int v) const { return dnet_.node_up(v); }

  void clear_route(int v) {
    r_.weight[static_cast<std::size_t>(v)] = std::nullopt;
    r_.next_arc[static_cast<std::size_t>(v)] = -1;
  }

  struct Candidate {
    std::optional<Value> weight;
    int arc = -1;
  };

  /// Best extension of u's neighbours' current routes over alive out-arcs.
  /// Ties break toward the smaller arc id (out_arcs is in id order);
  /// self-loops are skipped — they can tie but never improve under ND, and
  /// a self-loop witness would be a forwarding loop.
  Candidate best_candidate(int u) {
    Candidate best;
    const Digraph& g = dnet_.graph();
    for (int id : g.out_arcs(u)) {
      if (!dnet_.arc_alive(id)) continue;
      const int v = g.arc(id).dst;
      if (v == u) continue;
      const auto& wv = r_.weight[static_cast<std::size_t>(v)];
      if (!wv) continue;
      ++stats_.relaxations;
      Value cand = alg_.fns->apply(dnet_.label(id), *wv);
      if (!best.weight || lt_of(alg_.ord->cmp(cand, *best.weight))) {
        best.weight = std::move(cand);
        best.arc = id;
      }
    }
    return best;
  }

  /// Rebuilds every witness as a breadth-first forest over *achieving* arcs
  /// (arcs whose extension of the head's weight lands in the node's weight
  /// class), rooted at dest. Within a BFS layer nodes attach in ascending id
  /// and each picks its smallest achieving arc into the previous layers, so
  /// the forest is a pure function of the weight vector and the alive
  /// topology — cold and warm solves emit identical bytes whenever they
  /// reach the same fixed point. Crucially the result is cycle-free by
  /// construction: a per-node smallest-arc rule could let two equal-weight
  /// nodes witness each other (saturation plateaus), leaving a forwarding
  /// cycle that `invalidate` can never trace back to a failure. Nodes whose
  /// weight is not supported by the forest (such ghost plateaus) are
  /// cleared rather than preserved (see docs/DYN.md).
  void rebuild_witnesses() {
    const int n = dnet_.num_nodes();
    const Digraph& g = dnet_.graph();
    stats_.rebuilt = true;
    std::vector<char> attached(static_cast<std::size_t>(n), 0);
    if (node_ok(dest_) && r_.weight[static_cast<std::size_t>(dest_)]) {
      r_.weight[static_cast<std::size_t>(dest_)] = origin_;
      r_.next_arc[static_cast<std::size_t>(dest_)] = -1;
      attached[static_cast<std::size_t>(dest_)] = 1;
      std::vector<int> frontier{dest_};
      std::vector<int> cands;
      std::vector<int> next;
      while (!frontier.empty()) {
        cands.clear();
        for (int v : frontier) {
          for (int id : g.in_arcs(v)) {
            if (!dnet_.arc_alive(id)) continue;
            const int u = g.arc(id).src;
            if (!attached[static_cast<std::size_t>(u)] && node_ok(u) &&
                r_.weight[static_cast<std::size_t>(u)]) {
              cands.push_back(u);
            }
          }
        }
        std::sort(cands.begin(), cands.end());
        cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
        next.clear();
        for (int u : cands) {
          for (int id : g.out_arcs(u)) {
            if (!dnet_.arc_alive(id)) continue;
            const int h = g.arc(id).dst;
            if (h == u || !attached[static_cast<std::size_t>(h)]) continue;
            ++stats_.relaxations;
            Value cand = alg_.fns->apply(
                dnet_.label(id), *r_.weight[static_cast<std::size_t>(h)]);
            if (equiv_of(alg_.ord->cmp(
                    cand, *r_.weight[static_cast<std::size_t>(u)]))) {
              // Normalized weight = the value actually achieved along the
              // witness (identical for antisymmetric algebras).
              r_.weight[static_cast<std::size_t>(u)] = std::move(cand);
              r_.next_arc[static_cast<std::size_t>(u)] = id;
              next.push_back(u);
              break;
            }
          }
        }
        // Snapshot semantics: this layer becomes visible only for the next
        // one, keeping the layering independent of in-round scan order.
        for (int u : next) attached[static_cast<std::size_t>(u)] = 1;
        frontier.swap(next);
      }
    }
    for (int v = 0; v < n; ++v) {
      if (!attached[static_cast<std::size_t>(v)]) clear_route(v);
    }
  }

  /// Transitively invalidates every node whose forwarding chain passes
  /// through a changed arc or a crashed node, clearing their routes, and
  /// returns the sorted invalidated set. Running this *before* any
  /// recomputation is what rules out count-to-infinity ghosts: no surviving
  /// weight references a dead or relabeled witness, so every surviving
  /// weight is still achievable in the new topology. Sets `*cleared_route`
  /// when an invalidated node had a route.
  std::vector<int> invalidate(const DynNet::Applied& ap,
                              bool* cleared_route = nullptr) {
    const int n = dnet_.num_nodes();
    const Digraph& g = dnet_.graph();
    std::vector<char> invalid(static_cast<std::size_t>(n), 0);
    std::vector<int> stack;
    auto kill = [&](int v) {
      if (!invalid[static_cast<std::size_t>(v)]) {
        invalid[static_cast<std::size_t>(v)] = 1;
        stack.push_back(v);
      }
    };
    for (int v : ap.nodes_down) kill(v);
    // A changed arc that is someone's witness either died or was relabeled
    // (an arc that *came up* cannot have been a witness), so the route's
    // stored value is no longer trustworthy either way.
    for (int id : ap.changed_arcs) {
      const int u = g.arc(id).src;
      if (r_.next_arc[static_cast<std::size_t>(u)] == id) kill(u);
    }
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      for (int id : g.in_arcs(v)) {
        const int u = g.arc(id).src;
        if (r_.next_arc[static_cast<std::size_t>(u)] == id) kill(u);
      }
    }
    std::vector<int> out;
    for (int v = 0; v < n; ++v) {
      if (invalid[static_cast<std::size_t>(v)]) {
        obs::jrecord(Subsystem::Dyn, EventKind::WitnessInvalidate, jstream_,
                     v, r_.next_arc[static_cast<std::size_t>(v)], 0,
                     dnet_.version());
        if (cleared_route != nullptr &&
            r_.weight[static_cast<std::size_t>(v)]) {
          *cleared_route = true;
        }
        clear_route(v);
        out.push_back(v);
      }
    }
    return out;
  }

  /// Warm-start frontier: the invalidated set, the tails of changed arcs
  /// (their candidate sets changed even if their witness survived), and
  /// restarted nodes. Crashed nodes are excluded — their routes stay clear.
  std::vector<int> seed_nodes(const DynNet::Applied& ap,
                              const std::vector<int>& invalid) {
    std::vector<int> seeds = invalid;
    const Digraph& g = dnet_.graph();
    for (int id : ap.changed_arcs) seeds.push_back(g.arc(id).src);
    for (int v : ap.nodes_up) seeds.push_back(v);
    std::sort(seeds.begin(), seeds.end());
    seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
    seeds.erase(std::remove_if(seeds.begin(), seeds.end(),
                               [&](int v) { return !node_ok(v); }),
                seeds.end());
    return seeds;
  }

  /// Journals the routing diff against the previously published solution:
  /// one WitnessAttach per node whose (weight, witness arc) changed, one
  /// WitnessClear per node that lost its route. Diffing is the point —
  /// rebuild_witnesses() re-attaches every routed node on every update, but
  /// provenance wants "the delta after which this route last changed", so
  /// unaffected nodes must keep their older attach records. With the journal
  /// off the baseline goes stale; it is dropped so a later enable re-attaches
  /// everything instead of emitting a bogus partial diff.
  void journal_routing_diff() {
    if (!obs::journal_enabled()) {
      jprev_valid_ = false;
      return;
    }
    const int n = dnet_.num_nodes();
    const bool based =
        jprev_valid_ && jprev_weight_.size() == r_.weight.size();
    for (int v = 0; v < n; ++v) {
      const auto& w = r_.weight[static_cast<std::size_t>(v)];
      const int arc = r_.next_arc[static_cast<std::size_t>(v)];
      bool changed;
      if (!based) {
        changed = w.has_value();
      } else {
        const auto& pw = jprev_weight_[static_cast<std::size_t>(v)];
        changed = (w.has_value() != pw.has_value()) || (w && !(*w == *pw)) ||
                  arc != jprev_arc_[static_cast<std::size_t>(v)];
      }
      if (!changed) continue;
      if (w) {
        obs::jrecord(Subsystem::Dyn, EventKind::WitnessAttach, jstream_, v,
                     arc, 0, dnet_.version());
      } else {
        obs::jrecord(Subsystem::Dyn, EventKind::WitnessClear, jstream_, v, -1,
                     0, dnet_.version());
      }
    }
    jprev_weight_ = r_.weight;
    jprev_arc_ = r_.next_arc;
    jprev_valid_ = true;
  }

  void begin_stats(bool cold, std::size_t changed_arcs) {
    stats_ = UpdateStats{};
    stats_.cold = cold;
    stats_.total = dnet_.num_nodes();
    stats_.changed_arcs = static_cast<int>(changed_arcs);
  }

  /// `is_update` splits solve() and update() accounting: a cold bind is not
  /// a failed warm update, so dyn.updates / dyn.updates_cold / the
  /// affected-percentage histogram count update() calls only (solve() calls
  /// land in dyn.solves — they are definitionally 100%-affected and were
  /// previously polluting the warm-path ratios).
  void finish_stats(bool is_update) const {
    if (!obs::enabled()) return;
    obs::Registry& reg = obs::registry();
    if (is_update) {
      reg.counter("dyn.updates").add(1);
      if (stats_.cold) reg.counter("dyn.updates_cold").add(1);
      reg.histogram("dyn.affected_pct")
          .record(static_cast<std::uint64_t>(stats_.affected_fraction() *
                                             100));
    } else {
      reg.counter("dyn.solves").add(1);
    }
    reg.counter("dyn.affected_nodes")
        .add(static_cast<std::uint64_t>(stats_.affected));
    reg.counter("dyn.changed_arcs")
        .add(static_cast<std::uint64_t>(stats_.changed_arcs));
    reg.counter("dyn.relaxations").add(stats_.relaxations);
  }

  OrderTransform alg_;
  const compile::WeightEngine* weng_ = nullptr;
  DynNet dnet_;
  int dest_ = -1;
  Value origin_;
  bool bound_ = false;
  bool converged_ = false;
  Routing r_;
  compile::CompiledNet cnet_;
  UpdateStats stats_;
  // Flight-recorder state: this binding's journal stream, and the routing
  // shadow journal_routing_diff() diffs against.
  std::uint32_t jstream_ = 0;
  std::vector<std::optional<Value>> jprev_weight_;
  std::vector<int> jprev_arc_;
  bool jprev_valid_ = false;
};

/// Generalized Dijkstra as a dynamic engine. Cold solves run the one-shot
/// dijkstra (routing/dijkstra.hpp) over the surviving topology; updates run
/// a delta-Dijkstra over the affected set only: unaffected nodes stay frozen
/// as settled seeds, and a frozen node rejoins the affected set exactly when
/// a relaxation strictly improves it (Ramalingam–Reps style). A safety cap
/// on settle operations falls back to the cold path for algebras outside
/// the ND + M license.
class DijkstraEngine final : public EngineBase {
 public:
  using EngineBase::EngineBase;

  std::unique_ptr<Solver> clone() const override {
    return std::make_unique<DijkstraEngine>(*this);
  }

 private:
  /// dijkstra over the net's admin and crash masks (flat kernels when the
  /// network compiled), then the canonical witness rebuild.
  void cold_solve() override {
    r_ = dijkstra(alg_, dnet_.net(), dest_, origin_, &cnet_, dnet_.masks(),
                  &stats_.relaxations);
    converged_ = true;
    rebuild_witnesses();
  }

  void warm_update(const DynNet::Applied& ap) override {
    const std::vector<int> invalid = invalidate(ap);
    std::vector<int> affected = seed_nodes(ap, invalid);
    const int n = dnet_.num_nodes();
    const Digraph& g = dnet_.graph();
    const PreorderSet& ord = *alg_.ord;

    std::vector<char> in_a(static_cast<std::size_t>(n), 0);
    std::vector<char> settled(static_cast<std::size_t>(n), 1);
    for (int u : affected) {
      in_a[static_cast<std::size_t>(u)] = 1;
      settled[static_cast<std::size_t>(u)] = 0;
    }
    // Initial candidates from the frozen region only; routes via other
    // affected nodes arrive as those settle.
    for (int u : affected) {
      if (u == dest_) {
        r_.weight[static_cast<std::size_t>(u)] = origin_;
        r_.next_arc[static_cast<std::size_t>(u)] = -1;
        continue;
      }
      Candidate best;
      for (int id : g.out_arcs(u)) {
        if (!dnet_.arc_alive(id)) continue;
        const int v = g.arc(id).dst;
        if (v == u || in_a[static_cast<std::size_t>(v)]) continue;
        const auto& wv = r_.weight[static_cast<std::size_t>(v)];
        if (!wv) continue;
        ++stats_.relaxations;
        Value cand = alg_.fns->apply(dnet_.label(id), *wv);
        if (!best.weight || lt_of(ord.cmp(cand, *best.weight))) {
          best.weight = std::move(cand);
          best.arc = id;
        }
      }
      r_.weight[static_cast<std::size_t>(u)] = std::move(best.weight);
      r_.next_arc[static_cast<std::size_t>(u)] = best.arc;
    }

    // Worst case re-settles every node a few times; beyond that something
    // is outside the license (non-ND improvement cycles) and the masked
    // full solve is both safer and faster.
    const std::uint64_t settle_cap = 4ull * static_cast<std::uint64_t>(n) + 16;
    std::uint64_t settles = 0;
    for (;;) {
      int best = -1;
      for (int v : affected) {
        if (settled[static_cast<std::size_t>(v)] ||
            !r_.weight[static_cast<std::size_t>(v)]) {
          continue;
        }
        if (best < 0 ||
            lt_of(ord.cmp(*r_.weight[static_cast<std::size_t>(v)],
                          *r_.weight[static_cast<std::size_t>(best)]))) {
          best = v;
        }
      }
      if (best < 0) break;
      if (++settles > settle_cap) {
        converged_ = false;
        return;
      }
      settled[static_cast<std::size_t>(best)] = 1;
      obs::jrecord(Subsystem::Dyn, EventKind::RelaxSettle, jstream_, best,
                   r_.next_arc[static_cast<std::size_t>(best)],
                   static_cast<std::int64_t>(settles), dnet_.version());
      const Value wb = *r_.weight[static_cast<std::size_t>(best)];
      for (int id : g.in_arcs(best)) {
        if (!dnet_.arc_alive(id)) continue;
        const int u = g.arc(id).src;
        if (u == best || u == dest_) continue;
        ++stats_.relaxations;
        Value cand = alg_.fns->apply(dnet_.label(id), wb);
        auto& wu = r_.weight[static_cast<std::size_t>(u)];
        if (!wu || lt_of(ord.cmp(cand, *wu))) {
          wu = std::move(cand);
          r_.next_arc[static_cast<std::size_t>(u)] = id;
          // A strict improvement into the frozen region unsettles the node:
          // it joins the affected set and re-relaxes its own in-arcs.
          settled[static_cast<std::size_t>(u)] = 0;
          if (!in_a[static_cast<std::size_t>(u)]) {
            in_a[static_cast<std::size_t>(u)] = 1;
            affected.push_back(u);
          }
        }
      }
    }
    converged_ = true;
    rebuild_witnesses();
    stats_.affected = static_cast<int>(affected.size());
  }
};

/// Synchronous Bellman–Ford as a dynamic engine: a worklist of active nodes
/// recomputes each one's best extension from scratch and activates the
/// tails of its in-arcs on change. The cold path seeds {dest}; the warm
/// path seeds the invalidated frontier plus touched arc tails. Caps at the
/// same round budget as the one-shot bellman_sync.
class BellmanEngine final : public EngineBase {
 public:
  using EngineBase::EngineBase;

  std::unique_ptr<Solver> clone() const override {
    return std::make_unique<BellmanEngine>(*this);
  }

 private:
  void cold_solve() override {
    const int n = dnet_.num_nodes();
    r_.weight.assign(static_cast<std::size_t>(n), std::nullopt);
    r_.next_arc.assign(static_cast<std::size_t>(n), -1);
    converged_ = true;
    if (!node_ok(dest_)) return;
    converged_ = relax_worklist({dest_}, nullptr, nullptr);
    if (converged_) rebuild_witnesses();
  }

  /// Skips the canonical rebuild when it would reproduce the forest byte
  /// for byte (docs/DYN.md): invalidation cleared no route, the relax wrote
  /// none, and no alive changed arc achieves. rib::RibSolver applies the
  /// same rule per lane.
  void warm_update(const DynNet::Applied& ap) override {
    bool cleared = false;
    const std::vector<int> invalid = invalidate(ap, &cleared);
    const std::vector<int> seeds = seed_nodes(ap, invalid);
    std::vector<int> touched;
    bool wrote = false;
    converged_ = relax_worklist(seeds, &touched, &wrote);
    if (!converged_) return;
    if (cleared || wrote || changed_arc_achieves(ap)) rebuild_witnesses();
    stats_.affected = static_cast<int>(touched.size());
  }

  /// True when an alive changed arc u→h achieves: u != h, u is not the
  /// destination, both are routed, and apply(label, w[h]) ≃ w[u].
  bool changed_arc_achieves(const DynNet::Applied& ap) const {
    const Digraph& g = dnet_.graph();
    for (int id : ap.changed_arcs) {
      if (!dnet_.arc_alive(id)) continue;
      const Arc& a = g.arc(id);
      if (a.src == a.dst || a.src == dest_) continue;
      const auto& wu = r_.weight[static_cast<std::size_t>(a.src)];
      const auto& wh = r_.weight[static_cast<std::size_t>(a.dst)];
      if (wu && wh &&
          equiv_of(alg_.ord->cmp(alg_.fns->apply(dnet_.label(id), *wh), *wu))) {
        return true;
      }
    }
    return false;
  }

  /// Gauss–Seidel rounds over the active set, ascending node order within a
  /// round. Returns false on hitting the round cap (divergent algebra).
  /// Sets `*wrote` when a node's route changed.
  bool relax_worklist(const std::vector<int>& seeds,
                      std::vector<int>* touched_out, bool* wrote) {
    const int n = dnet_.num_nodes();
    const Digraph& g = dnet_.graph();
    std::vector<char> queued(static_cast<std::size_t>(n), 0);
    std::vector<char> touched(static_cast<std::size_t>(n), 0);
    std::vector<int> frontier;
    for (int u : seeds) {
      if (node_ok(u) && !queued[static_cast<std::size_t>(u)]) {
        queued[static_cast<std::size_t>(u)] = 1;
        frontier.push_back(u);
      }
    }
    int rounds = 0;
    while (!frontier.empty()) {
      if (++rounds > dyn::kMaxRounds) return false;
      obs::jrecord(Subsystem::Dyn, EventKind::RelaxWave, jstream_, -1, -1,
                   static_cast<std::int64_t>(frontier.size()),
                   dnet_.version());
      std::sort(frontier.begin(), frontier.end());
      for (int u : frontier) queued[static_cast<std::size_t>(u)] = 0;
      std::vector<int> next;
      auto activate = [&](int x) {
        if (node_ok(x) && !queued[static_cast<std::size_t>(x)]) {
          queued[static_cast<std::size_t>(x)] = 1;
          next.push_back(x);
        }
      };
      for (int u : frontier) {
        touched[static_cast<std::size_t>(u)] = 1;
        bool changed = false;
        auto& wu = r_.weight[static_cast<std::size_t>(u)];
        if (u == dest_) {
          changed = !wu || !(*wu == origin_);
          if (changed) {
            wu = origin_;
            r_.next_arc[static_cast<std::size_t>(u)] = -1;
          }
        } else {
          Candidate c = best_candidate(u);
          changed = (c.weight.has_value() != wu.has_value()) ||
                    (c.weight && !(*c.weight == *wu));
          if (changed) {
            wu = std::move(c.weight);
            r_.next_arc[static_cast<std::size_t>(u)] = c.arc;
          }
        }
        if (changed) {
          if (wrote != nullptr) *wrote = true;
          for (int id : g.in_arcs(u)) activate(g.arc(id).src);
        }
      }
      frontier = std::move(next);
    }
    if (touched_out != nullptr) {
      for (int v = 0; v < n; ++v) {
        if (touched[static_cast<std::size_t>(v)]) touched_out->push_back(v);
      }
    }
    return true;
  }
};

}  // namespace

namespace dyn {

std::unique_ptr<Solver> make_solver(EngineKind kind, const OrderTransform& alg,
                                    const compile::WeightEngine* engine) {
  switch (kind) {
    case EngineKind::Bellman:
      return std::make_unique<BellmanEngine>(alg, engine);
    case EngineKind::Dijkstra:
      break;
  }
  return std::make_unique<DijkstraEngine>(alg, engine);
}

}  // namespace dyn
}  // namespace mrt
