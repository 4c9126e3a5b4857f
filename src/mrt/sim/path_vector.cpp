#include "mrt/sim/path_vector.hpp"

#include <algorithm>
#include <utility>

#include "mrt/obs/obs.hpp"
#include "mrt/par/par.hpp"
#include "mrt/support/require.hpp"

namespace mrt {

PathVectorSim::PathVectorSim(const OrderTransform& alg, LabeledGraph net,
                             int dest, Value origin, SimOptions opts,
                             const compile::WeightEngine* engine)
    : alg_(alg),
      net_(std::move(net)),
      dest_(dest),
      origin_(std::move(origin)),
      opts_(opts),
      rng_(opts.seed),
      fault_rng_(par::mix_seed(opts.seed, 0x0FA171ULL)) {
  const int n = net_.num_nodes();
  const int m = net_.graph().num_arcs();
  MRT_REQUIRE(dest_ >= 0 && dest_ < n);
  rib_in_.assign(static_cast<std::size_t>(m), std::nullopt);
  rib_in_path_.assign(static_cast<std::size_t>(m), {});
  arc_up_.assign(static_cast<std::size_t>(m), true);
  node_up_.assign(static_cast<std::size_t>(n), true);
  arc_faults_.assign(static_cast<std::size_t>(m), {});
  selected_.assign(static_cast<std::size_t>(n), std::nullopt);
  selected_arc_.assign(static_cast<std::size_t>(n), -1);
  selected_path_.assign(static_cast<std::size_t>(n), {});
  flaps_.assign(static_cast<std::size_t>(n), 0);
  jstream_ = obs::journal_next_stream();
  selected_[static_cast<std::size_t>(dest_)] = origin_;
  selected_path_[static_cast<std::size_t>(dest_)] = {dest_};

  // Compiled mode: requires the algebra compiled, every arc label compiled,
  // the origin representable, and the layout narrow enough for the inline
  // message payload. Any miss leaves the run boxed — same results, slower.
  if (engine != nullptr && engine->compiled()) {
    cnet_ = compile::CompiledNet::make(*engine, net_);
    if (cnet_.ok() && cnet_.words() <= compile::kMsgWords) {
      origin_flat_.n = static_cast<std::uint8_t>(cnet_.words());
      if (cnet_.algebra().encode(origin_, origin_flat_.w.data())) {
        origin_flat_.present = true;
        flat_ = true;
        rib_in_flat_.assign(static_cast<std::size_t>(m), {});
        selected_flat_.assign(static_cast<std::size_t>(n), {});
        selected_flat_[static_cast<std::size_t>(dest_)] = origin_flat_;
      }
    }
  }
}

void PathVectorSim::schedule_link_down(double t, int arc) {
  queue_.push(t, Event::Kind::LinkDown, arc);
}

void PathVectorSim::schedule_link_up(double t, int arc) {
  queue_.push(t, Event::Kind::LinkUp, arc);
}

void PathVectorSim::schedule_node_down(double t, int node) {
  MRT_REQUIRE(node >= 0 && node < net_.num_nodes());
  queue_.push(t, Event::Kind::NodeDown, node);
}

void PathVectorSim::schedule_node_up(double t, int node) {
  MRT_REQUIRE(node >= 0 && node < net_.num_nodes());
  queue_.push(t, Event::Kind::NodeUp, node);
}

void PathVectorSim::schedule_resync(double t, int arc) {
  queue_.push(t, Event::Kind::Resync, arc);
}

void PathVectorSim::add_arc_fault(const ArcFault& f) {
  MRT_REQUIRE(f.arc >= 0 && f.arc < net_.graph().num_arcs());
  arc_faults_[static_cast<std::size_t>(f.arc)].push_back(f);
}

void PathVectorSim::set_scheduler(Scheduler* s) {
  sched_ = s != nullptr ? s : &fifo_;
}

bool PathVectorSim::arc_alive(int arc) const {
  if (!arc_up_[static_cast<std::size_t>(arc)]) return false;
  const Arc& a = net_.graph().arc(arc);
  return node_up_[static_cast<std::size_t>(a.src)] &&
         node_up_[static_cast<std::size_t>(a.dst)];
}

const ArcFault* PathVectorSim::active_fault(int arc, double now) const {
  for (const ArcFault& f : arc_faults_[static_cast<std::size_t>(arc)]) {
    if (f.from <= now && now < f.until) return &f;
  }
  return nullptr;
}

std::optional<Value> PathVectorSim::candidate_via(int arc) const {
  if (!arc_alive(arc)) return std::nullopt;
  const auto& adv = rib_in_[static_cast<std::size_t>(arc)];
  if (!adv) return std::nullopt;
  if (opts_.loop_detection) {
    // BGP-style: refuse a route whose path already contains this node.
    const int self = net_.graph().arc(arc).src;
    const auto& path = rib_in_path_[static_cast<std::size_t>(arc)];
    if (std::find(path.begin(), path.end(), self) != path.end()) {
      return std::nullopt;
    }
  }
  Value cand = alg_.fns->apply(net_.label(arc), *adv);
  if (opts_.drop_top_routes && alg_.ord->is_top(cand)) return std::nullopt;
  return cand;
}

void PathVectorSim::candidate_via_flat(int arc, compile::FlatMsg* out) const {
  out->present = false;
  if (!arc_alive(arc)) return;
  const compile::FlatMsg& adv = rib_in_flat_[static_cast<std::size_t>(arc)];
  if (!adv.present) return;
  if (opts_.loop_detection) {
    const int self = net_.graph().arc(arc).src;
    const auto& path = rib_in_path_[static_cast<std::size_t>(arc)];
    if (std::find(path.begin(), path.end(), self) != path.end()) return;
  }
  *out = adv;
  cnet_.algebra().apply(cnet_.label(arc), out->w.data());
  if (opts_.drop_top_routes && cnet_.algebra().is_top(out->w.data())) {
    out->present = false;
    return;
  }
  out->present = true;
}

// Sends `node`'s current selection to every in-neighbour, respecting per-arc
// FIFO (a later message never overtakes an earlier one).
void PathVectorSim::advertise(int node, double now) {
  const bool withdrawal =
      flat_ ? !selected_flat_[static_cast<std::size_t>(node)].present
            : !selected_[static_cast<std::size_t>(node)];
  // Per-message hot loop: walk the CSR in-view (one flat index chase per
  // neighbour) instead of the vector<vector<int>> adjacency.
  const CsrAdjacency& in = net_.graph().csr_in();
  for (int e = in.begin(node); e < in.end(node); ++e) {
    const int id = in.arc[static_cast<std::size_t>(e)];
    if (!arc_alive(id)) continue;
    // Base latency comes from the scheduler's draw on rng_ unconditionally,
    // so the schedule of a seed is identical whether or not faults are
    // installed; fault windows only ever add on top, drawing from fault_rng_.
    double delay = sched_->draw_delay(id, now, rng_);
    int copies = 1;
    if (const ArcFault* f = active_fault(id, now)) {
      if (f->extra_delay > 0.0 || f->jitter > 0.0) {
        delay += f->extra_delay;
        if (f->jitter > 0.0) delay += fault_rng_.unit() * f->jitter;
        ++stats_.jittered_messages;
      }
      if (f->dup_p > 0.0 && fault_rng_.chance(f->dup_p)) {
        copies = 2;
        ++stats_.duplicated_messages;
      }
    }
    for (int c = 0; c < copies; ++c) {
      if (c > 0) {
        // The duplicate rides behind the original with its own latency.
        delay = opts_.min_delay +
                fault_rng_.unit() * (opts_.max_delay - opts_.min_delay);
      }
      // The policy owns the channel discipline: the default clamps to
      // per-arc FIFO (each message departs after the previous one *arrived*,
      // with fresh latency — collapsing onto the previous arrival time would
      // lock oscillating nodes into artificial lockstep); adversaries may
      // reorder.
      const double when = sched_->depart(id, now, delay);
      if (flat_) {
        queue_.push(when, Event::Kind::Deliver, id,
                    selected_flat_[static_cast<std::size_t>(node)],
                    selected_path_[static_cast<std::size_t>(node)]);
      } else {
        queue_.push(when, Event::Kind::Deliver, id,
                    selected_[static_cast<std::size_t>(node)],
                    selected_path_[static_cast<std::size_t>(node)]);
      }
      ++stats_.messages_sent;
      if (withdrawal) ++stats_.withdrawals_sent;
      obs::jrecord(obs::Subsystem::Sim, obs::EventKind::MsgSend, jstream_,
                   node, id, withdrawal ? 0 : 1, 0,
                   static_cast<std::uint64_t>(now * 1e6));
    }
  }
}

void PathVectorSim::reselect(int node, double now) {
  if (node == dest_) return;  // the destination's route is pinned
  if (!node_up_[static_cast<std::size_t>(node)]) return;  // crashed
  ++stats_.reselects;
  if (flat_) {
    reselect_flat(node, now);
  } else {
    reselect_boxed(node, now);
  }
}

void PathVectorSim::reselect_boxed(int node, double now) {
  // Best candidate, deterministic: scan out-arcs in id order, strict
  // improvement replaces.
  std::optional<Value> best;
  int best_arc = -1;
  const CsrAdjacency& out = net_.graph().csr_out();
  for (int e = out.begin(node); e < out.end(node); ++e) {
    const int id = out.arc[static_cast<std::size_t>(e)];
    auto cand = candidate_via(id);
    if (!cand) continue;
    if (!best || lt_of(alg_.ord->cmp(*cand, *best))) {
      best = std::move(cand);
      best_arc = id;
    }
  }

  // Stickiness: keep the current arc while it remains non-strictly-worse.
  const int cur_arc = selected_arc_[static_cast<std::size_t>(node)];
  if (cur_arc >= 0 && best) {
    if (auto via_cur = candidate_via(cur_arc)) {
      if (!lt_of(alg_.ord->cmp(*best, *via_cur))) {
        best = via_cur;
        best_arc = cur_arc;
      }
    }
  }

  auto& sel = selected_[static_cast<std::size_t>(node)];
  auto& sel_arc = selected_arc_[static_cast<std::size_t>(node)];
  std::vector<int> best_path;
  if (opts_.loop_detection && best_arc >= 0) {
    best_path.push_back(node);
    const auto& via = rib_in_path_[static_cast<std::size_t>(best_arc)];
    best_path.insert(best_path.end(), via.begin(), via.end());
  }
  const bool weight_changed =
      best.has_value() != sel.has_value() || (best && !(*best == *sel));
  const bool path_changed =
      opts_.loop_detection &&
      best_path != selected_path_[static_cast<std::size_t>(node)];
  if (weight_changed || path_changed || best_arc != sel_arc) {
    ++flaps_[static_cast<std::size_t>(node)];
    ++stats_.selection_changes;
    sel = best;
    sel_arc = best_arc;
    selected_path_[static_cast<std::size_t>(node)] = std::move(best_path);
    sched_->note_selection(node, best_arc);
    obs::jrecord(obs::Subsystem::Sim, obs::EventKind::Reselect, jstream_,
                 node, best_arc, flaps_[static_cast<std::size_t>(node)], 0,
                 static_cast<std::uint64_t>(now * 1e6));
    if (weight_changed || path_changed) advertise(node, now);
  }
}

// The boxed reselection step on flat words: same scan order, same
// strict-improvement and stickiness rules, word equality standing in for
// Value equality. Both modes flap and advertise at identical points.
void PathVectorSim::reselect_flat(int node, double now) {
  const compile::CompiledAlgebra& ca = cnet_.algebra();
  compile::FlatMsg best;
  best.n = static_cast<std::uint8_t>(cnet_.words());
  int best_arc = -1;
  compile::FlatMsg cand;
  cand.n = best.n;
  const CsrAdjacency& out = net_.graph().csr_out();
  for (int e = out.begin(node); e < out.end(node); ++e) {
    const int id = out.arc[static_cast<std::size_t>(e)];
    candidate_via_flat(id, &cand);
    if (!cand.present) continue;
    if (!best.present ||
        lt_of(ca.compare(cand.w.data(), best.w.data()))) {
      best = cand;
      best_arc = id;
    }
  }

  const int cur_arc = selected_arc_[static_cast<std::size_t>(node)];
  if (cur_arc >= 0 && best.present) {
    compile::FlatMsg via_cur;
    via_cur.n = best.n;
    candidate_via_flat(cur_arc, &via_cur);
    if (via_cur.present &&
        !lt_of(ca.compare(best.w.data(), via_cur.w.data()))) {
      best = via_cur;
      best_arc = cur_arc;
    }
  }

  compile::FlatMsg& sel = selected_flat_[static_cast<std::size_t>(node)];
  auto& sel_arc = selected_arc_[static_cast<std::size_t>(node)];
  std::vector<int> best_path;
  if (opts_.loop_detection && best_arc >= 0) {
    best_path.push_back(node);
    const auto& via = rib_in_path_[static_cast<std::size_t>(best_arc)];
    best_path.insert(best_path.end(), via.begin(), via.end());
  }
  const bool weight_changed = !(best == sel);
  const bool path_changed =
      opts_.loop_detection &&
      best_path != selected_path_[static_cast<std::size_t>(node)];
  if (weight_changed || path_changed || best_arc != sel_arc) {
    ++flaps_[static_cast<std::size_t>(node)];
    ++stats_.selection_changes;
    sel = best;
    sel_arc = best_arc;
    selected_path_[static_cast<std::size_t>(node)] = std::move(best_path);
    sched_->note_selection(node, best_arc);
    obs::jrecord(obs::Subsystem::Sim, obs::EventKind::Reselect, jstream_,
                 node, best_arc, flaps_[static_cast<std::size_t>(node)], 0,
                 static_cast<std::uint64_t>(now * 1e6));
    if (weight_changed || path_changed) advertise(node, now);
  }
}

void PathVectorSim::crash_node(int node, double now) {
  if (!node_up_[static_cast<std::size_t>(node)]) return;  // already down
  node_up_[static_cast<std::size_t>(node)] = false;
  ++stats_.node_crash_events;
  obs::jrecord(obs::Subsystem::Sim, obs::EventKind::NodeCrash, jstream_, node,
               -1, 0, 0, static_cast<std::uint64_t>(now * 1e6));
  // The node loses all protocol state: its RIB-in (out-arcs carry what its
  // neighbours advertised to it) and its selection.
  for (int id : net_.graph().out_arcs(node)) {
    rib_in_[static_cast<std::size_t>(id)] = std::nullopt;
    rib_in_path_[static_cast<std::size_t>(id)].clear();
    if (flat_) rib_in_flat_[static_cast<std::size_t>(id)].present = false;
  }
  selected_[static_cast<std::size_t>(node)] = std::nullopt;
  selected_arc_[static_cast<std::size_t>(node)] = -1;
  selected_path_[static_cast<std::size_t>(node)].clear();
  if (flat_) selected_flat_[static_cast<std::size_t>(node)].present = false;
  sched_->note_selection(node, -1);
  // Every neighbour's session to the crashed node dies with it: the arcs
  // (x → node) carried node's advertisements to x, so x forgets them and
  // reselects — exactly the LinkDown treatment, for all sessions at once.
  for (int id : net_.graph().in_arcs(node)) {
    rib_in_[static_cast<std::size_t>(id)] = std::nullopt;
    rib_in_path_[static_cast<std::size_t>(id)].clear();
    if (flat_) rib_in_flat_[static_cast<std::size_t>(id)].present = false;
  }
  for (int id : net_.graph().in_arcs(node)) {
    reselect(net_.graph().arc(id).src, now);
  }
}

void PathVectorSim::restart_node(int node, double now) {
  if (node_up_[static_cast<std::size_t>(node)]) return;  // not down
  node_up_[static_cast<std::size_t>(node)] = true;
  ++stats_.node_restart_events;
  obs::jrecord(obs::Subsystem::Sim, obs::EventKind::NodeRestart, jstream_,
               node, -1, 0, 0, static_cast<std::uint64_t>(now * 1e6));
  if (node == dest_) {
    // The destination re-originates its route on restart.
    selected_[static_cast<std::size_t>(node)] = origin_;
    selected_path_[static_cast<std::size_t>(node)] = {node};
    if (flat_) selected_flat_[static_cast<std::size_t>(node)] = origin_flat_;
    advertise(node, now);
    return;
  }
  // Each revived learning session (node → y) needs y to re-advertise so the
  // restarted node can rebuild its RIB — the LinkUp treatment per session.
  for (int id : net_.graph().out_arcs(node)) {
    if (!arc_alive(id)) continue;
    const int head = net_.graph().arc(id).dst;
    const bool head_has =
        flat_ ? selected_flat_[static_cast<std::size_t>(head)].present
              : selected_[static_cast<std::size_t>(head)].has_value();
    if (head_has) {
      advertise(head, now);
    }
  }
}

Routing PathVectorSim::snapshot_routing() const {
  Routing r;
  if (flat_) {
    const compile::CompiledAlgebra& ca = cnet_.algebra();
    r.weight.resize(selected_flat_.size());
    for (std::size_t v = 0; v < selected_flat_.size(); ++v) {
      r.weight[v] = selected_flat_[v].present
                        ? std::optional<Value>(
                              ca.decode(selected_flat_[v].w.data()))
                        : std::nullopt;
    }
  } else {
    r.weight = selected_;
  }
  r.next_arc = selected_arc_;
  return r;
}

void PathVectorSim::maybe_record_quiescent(double now) {
  const std::size_t m = arc_up_.size();
  const std::size_t n = node_up_.size();
  if (!q_have_) {
    // The first point diffs against the all-up network — the state a
    // replaying solver binds cold before consuming the stream.
    q_arc_up_.assign(m, true);
    q_node_up_.assign(n, true);
  }
  dyn::TopologyDelta d;
  for (std::size_t a = 0; a < m; ++a) {
    if (arc_up_[a] != q_arc_up_[a]) {
      if (arc_up_[a]) {
        d.arc_up(static_cast<int>(a));
      } else {
        d.arc_down(static_cast<int>(a));
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (node_up_[v] != q_node_up_[v]) {
      if (node_up_[v]) {
        d.node_up(static_cast<int>(v));
      } else {
        d.node_down(static_cast<int>(v));
      }
    }
  }
  Routing r = snapshot_routing();
  const bool topo_changed = !d.ops.empty();
  const bool routing_changed = !q_have_ || r.weight != q_routing_.weight ||
                               r.next_arc != q_routing_.next_arc;
  // The queue can drain many times in a row with nothing new (e.g. a fault
  // event that triggered no reaction): only state changes produce points.
  if (!topo_changed && !routing_changed) return;
  QuiescentPoint p;
  p.time = now;
  p.delta = std::move(d);
  p.arc_alive.resize(m);
  for (std::size_t a = 0; a < m; ++a) {
    p.arc_alive[a] = arc_alive(static_cast<int>(a));
  }
  p.node_up = node_up_;
  q_arc_up_ = arc_up_;
  q_node_up_ = node_up_;
  q_routing_ = std::move(r);
  q_have_ = true;
  p.routing = q_routing_;
  quiescent_.push_back(std::move(p));
}

SimResult PathVectorSim::run() {
  static obs::Histogram& run_ns = obs::registry().histogram("sim.run_ns");
  obs::ScopedTimer timer(run_ns);
  sched_->bind(net_, opts_, jstream_);
  sched_reorders_ = sched_->reorders();
  if (sched_reorders_) {
    arc_seq_floor_.assign(static_cast<std::size_t>(net_.graph().num_arcs()),
                          0);
  }
  advertise(dest_, 0.0);

  // Round 1 is everything the origination put in flight; round r+1 is
  // whatever is in flight when the last round-r Deliver leaves the queue.
  rounds_ = 0;
  round_mark_ = queue_.pushes();
  round_pending_ = queue_.pending_delivers();

  while (!queue_.empty() && delivered_ < opts_.max_events) {
    Event e = queue_.pop();
    if (e.kind == Event::Kind::Deliver && e.seq < round_mark_ &&
        round_pending_ > 0) {
      --round_pending_;
    }
    switch (e.kind) {
      case Event::Kind::Deliver: {
        if (!arc_alive(e.arc)) {  // lost
          ++stats_.dropped_dead_arc;
          obs::jrecord(obs::Subsystem::Sim, obs::EventKind::MsgLoss, jstream_,
                       net_.graph().arc(e.arc).src, e.arc, 0, 0,
                       static_cast<std::uint64_t>(queue_.now() * 1e6));
          break;
        }
        if (const ArcFault* f = active_fault(e.arc, queue_.now());
            f && f->loss_p > 0.0 && fault_rng_.chance(f->loss_p)) {
          ++stats_.dropped_injected_loss;
          obs::jrecord(obs::Subsystem::Sim, obs::EventKind::MsgLoss, jstream_,
                       net_.graph().arc(e.arc).src, e.arc, 1, 0,
                       static_cast<std::uint64_t>(queue_.now() * 1e6));
          break;
        }
        if (sched_reorders_) {
          // Reordering schedule: an older send arriving after a newer one
          // must not roll the RIB-in back — the channel models "latest send
          // wins". Count the stale copy as delivered so conservation holds.
          auto& floor = arc_seq_floor_[static_cast<std::size_t>(e.arc)];
          if (e.seq < floor) {
            ++delivered_;
            ++stats_.deliveries;
            ++stats_.stale_discarded;
            obs::jrecord(obs::Subsystem::Sim, obs::EventKind::StaleDrop,
                         jstream_, net_.graph().arc(e.arc).src, e.arc, 0, 0,
                         static_cast<std::uint64_t>(queue_.now() * 1e6));
            break;
          }
          floor = e.seq + 1;
        }
        ++delivered_;
        ++stats_.deliveries;
        if (flat_) {
          if (!e.fweight.present) ++stats_.withdrawals_delivered;
          rib_in_flat_[static_cast<std::size_t>(e.arc)] = e.fweight;
        } else {
          if (!e.weight) ++stats_.withdrawals_delivered;
          rib_in_[static_cast<std::size_t>(e.arc)] = e.weight;
        }
        rib_in_path_[static_cast<std::size_t>(e.arc)] = std::move(e.path);
        obs::jrecord(obs::Subsystem::Sim, obs::EventKind::MsgDeliver,
                     jstream_, net_.graph().arc(e.arc).src, e.arc,
                     (flat_ ? e.fweight.present : e.weight.has_value()) ? 1
                                                                        : 0,
                     0, static_cast<std::uint64_t>(queue_.now() * 1e6));
        if (delivered_ % 64 == 0) {
          obs::jrecord(obs::Subsystem::Sim, obs::EventKind::QueueDepth,
                       jstream_, -1, -1,
                       static_cast<std::int64_t>(queue_.size()), 0,
                       static_cast<std::uint64_t>(queue_.now() * 1e6));
        }
        reselect(net_.graph().arc(e.arc).src, queue_.now());
        break;
      }
      case Event::Kind::LinkDown: {
        ++stats_.link_down_events;
        obs::jrecord(obs::Subsystem::Sim, obs::EventKind::LinkDown, jstream_,
                     net_.graph().arc(e.arc).src, e.arc, 0, 0,
                     static_cast<std::uint64_t>(queue_.now() * 1e6));
        arc_up_[static_cast<std::size_t>(e.arc)] = false;
        rib_in_[static_cast<std::size_t>(e.arc)] = std::nullopt;
        if (flat_) rib_in_flat_[static_cast<std::size_t>(e.arc)].present = false;
        reselect(net_.graph().arc(e.arc).src, queue_.now());
        break;
      }
      case Event::Kind::LinkUp: {
        ++stats_.link_up_events;
        obs::jrecord(obs::Subsystem::Sim, obs::EventKind::LinkUp, jstream_,
                     net_.graph().arc(e.arc).src, e.arc, 0, 0,
                     static_cast<std::uint64_t>(queue_.now() * 1e6));
        arc_up_[static_cast<std::size_t>(e.arc)] = true;
        // The arc's head re-advertises so the tail can learn the route —
        // unless an endpoint is still crashed, in which case the restart
        // will trigger the re-advertisement.
        if (!arc_alive(e.arc)) break;
        const int head = net_.graph().arc(e.arc).dst;
        const bool head_has =
            flat_ ? selected_flat_[static_cast<std::size_t>(head)].present
                  : selected_[static_cast<std::size_t>(head)].has_value();
        if (head_has) {
          advertise(head, queue_.now());
        }
        break;
      }
      case Event::Kind::NodeDown: {
        crash_node(e.arc, queue_.now());
        break;
      }
      case Event::Kind::NodeUp: {
        restart_node(e.arc, queue_.now());
        break;
      }
      case Event::Kind::Resync: {
        ++stats_.resync_events;
        obs::jrecord(obs::Subsystem::Sim, obs::EventKind::Resync, jstream_,
                     -1, e.arc, 0, 0,
                     static_cast<std::uint64_t>(queue_.now() * 1e6));
        if (!arc_alive(e.arc)) break;
        // Unconditional re-advertisement (withdrawals included): the loss
        // window may have eaten the head's final message, route or
        // withdrawal alike, and this is what repairs the stale RIB.
        advertise(net_.graph().arc(e.arc).dst, queue_.now());
        break;
      }
    }
    if (e.kind == Event::Kind::Deliver && round_pending_ == 0) {
      // The round's last message (and any it triggered) has been handled:
      // everything now in flight forms the next generation.
      ++rounds_;
      round_mark_ = queue_.pushes();
      round_pending_ = queue_.pending_delivers();
    }
    // Quiescent instant: no advertisements in flight (future fault events
    // may still be queued — each fault wave then yields its own points).
    // Pure observation: consumes no RNG draws, enqueues nothing.
    if (opts_.record_quiescent && queue_.pending_delivers() == 0) {
      maybe_record_quiescent(queue_.now());
    }
  }

  stats_.queue_high_water = queue_.high_water();
  stats_.in_flight_at_end = static_cast<long>(queue_.pending_delivers());

  // Decode boundary: in compiled mode, Values materialize only here.
  if (flat_) {
    const compile::CompiledAlgebra& ca = cnet_.algebra();
    for (std::size_t v = 0; v < selected_flat_.size(); ++v) {
      selected_[v] = selected_flat_[v].present
                         ? std::optional<Value>(ca.decode(
                               selected_flat_[v].w.data()))
                         : std::nullopt;
    }
  }

  SimResult out;
  out.converged = queue_.empty();
  out.events = delivered_;
  out.rounds = rounds_;
  out.finish_time = queue_.now();
  out.routing.weight = selected_;
  out.routing.next_arc = selected_arc_;
  out.flaps = flaps_;
  out.paths = selected_path_;
  const int m = net_.graph().num_arcs();
  out.arc_alive.resize(static_cast<std::size_t>(m));
  for (int a = 0; a < m; ++a) {
    out.arc_alive[static_cast<std::size_t>(a)] = arc_alive(a);
  }
  out.node_up = node_up_;
  out.delta = dyn::TopologyDelta::to_state(arc_up_, node_up_);
  out.quiescent = std::move(quiescent_);
  out.stats = stats_;

  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    reg.counter("sim.runs").add(1);
    reg.counter("sim.compiled_runs").add(flat_ ? 1 : 0);
    reg.counter("sim.converged").add(out.converged ? 1 : 0);
    reg.counter("sim.messages_sent")
        .add(static_cast<std::uint64_t>(stats_.messages_sent));
    reg.counter("sim.withdrawals_sent")
        .add(static_cast<std::uint64_t>(stats_.withdrawals_sent));
    reg.counter("sim.deliveries")
        .add(static_cast<std::uint64_t>(stats_.deliveries));
    reg.counter("sim.withdrawals_delivered")
        .add(static_cast<std::uint64_t>(stats_.withdrawals_delivered));
    reg.counter("sim.dropped_dead_arc")
        .add(static_cast<std::uint64_t>(stats_.dropped_dead_arc));
    reg.counter("sim.reselects")
        .add(static_cast<std::uint64_t>(stats_.reselects));
    reg.counter("sim.selection_changes")
        .add(static_cast<std::uint64_t>(stats_.selection_changes));
    reg.counter("sim.link_down_events")
        .add(static_cast<std::uint64_t>(stats_.link_down_events));
    reg.counter("sim.link_up_events")
        .add(static_cast<std::uint64_t>(stats_.link_up_events));
    reg.counter("sim.dropped_injected_loss")
        .add(static_cast<std::uint64_t>(stats_.dropped_injected_loss));
    reg.counter("sim.duplicated_messages")
        .add(static_cast<std::uint64_t>(stats_.duplicated_messages));
    reg.counter("sim.jittered_messages")
        .add(static_cast<std::uint64_t>(stats_.jittered_messages));
    reg.counter("sim.node_crash_events")
        .add(static_cast<std::uint64_t>(stats_.node_crash_events));
    reg.counter("sim.node_restart_events")
        .add(static_cast<std::uint64_t>(stats_.node_restart_events));
    reg.counter("sim.resync_events")
        .add(static_cast<std::uint64_t>(stats_.resync_events));
    reg.counter("sim.stale_discarded")
        .add(static_cast<std::uint64_t>(stats_.stale_discarded));
    reg.counter("sim.heap_pushes").add(queue_.pushes());
    reg.counter("sim.heap_pops").add(queue_.pops());
    reg.gauge("sim.queue_high_water")
        .max_of(static_cast<double>(stats_.queue_high_water));
    reg.histogram("sim.events_per_run")
        .record(static_cast<std::uint64_t>(delivered_));
    reg.histogram("sim.rounds_per_run")
        .record(static_cast<std::uint64_t>(rounds_));
    obs::Histogram& flap_hist = reg.histogram("sim.flaps_per_node");
    for (int f : flaps_) flap_hist.record(static_cast<std::uint64_t>(f));
  }
  return out;
}

}  // namespace mrt
