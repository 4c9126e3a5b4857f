// serve::Daemon — the long-running routing daemon over the delta-stream seam.
//
//   correctness — draining a stream leaves every column byte-identical to
//                 one batch and to a cold RibSolver of the final topology,
//                 on flat kernels and on reference columns (the daemon adds
//                 no solver logic, so this is the stream≡batch≡cold
//                 contract again, now through the daemon's warm loop).
//   events      — route-change detection: an arc flap on a line graph emits
//                 the withdrawal and the restoration, nothing else.
//   telemetry   — serve.deltas_consumed / serve.route_changes /
//                 serve.update_ns are present in write_json and the
//                 OpenMetrics exposition after one apply.
//   resilience  — a missing replay file or a corrupt frame terminates the
//                 drain gracefully (decode_errors bumped, error() set); a
//                 batch with an out-of-range id, a wrong-carrier label or a
//                 label outside the algebra's family is rejected whole,
//                 leaving every table, and its engine, exactly as it was.
//   diff        — the route changes a flat daemon forwards (words diffed in
//                 the table) equal those of a reference-column daemon and a
//                 boxed before/after diff of every column, frame by frame,
//                 with well-framed bad frames fed through the wire between
//                 them.
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "helpers.hpp"
#include "mrt/dyn/solver.hpp"
#include "mrt/graph/generators.hpp"
#include "mrt/obs/obs.hpp"
#include "mrt/par/par.hpp"
#include "mrt/rib/rib.hpp"
#include "mrt/serve/serve.hpp"
#include "mrt/sim/scenario.hpp"
#include "mrt/stream/stream.hpp"
#include "mrt/stream/wire.hpp"
#include "mrt/support/rng.hpp"

namespace mrt {
namespace {

using mrt::testing::I;
using dyn::TopologyDelta;

void expect_identical(const Routing& a, const Routing& b,
                      const std::string& what) {
  ASSERT_EQ(a.weight.size(), b.weight.size()) << what;
  for (std::size_t v = 0; v < a.weight.size(); ++v) {
    ASSERT_EQ(a.weight[v].has_value(), b.weight[v].has_value())
        << what << " node " << v;
    if (a.weight[v]) {
      ASSERT_EQ(*a.weight[v], *b.weight[v]) << what << " node " << v;
    }
    ASSERT_EQ(a.next_arc[v], b.next_arc[v]) << what << " node " << v;
  }
}

// stream ≡ batch ≡ cold through the daemon, on the flat kernels a
// deployment binds (WeightEngine) and on reference columns (none). The log
// is down/up flaps of odd length: it ends with one arc down, so the
// concatenated batch changes the topology and its dyn-off twin is a real
// cold re-solve. (An even-length flap log composes to a no-op batch, which
// stays warm whatever the toggle says.)
TEST(Serve, DrainMatchesColdRibPerColumn) {
  Rng rng(0x5E12);
  const Scenario sc = gao_rexford_hierarchy(rng, 32, 16);
  const int arcs = sc.net.graph().num_arcs();
  const compile::WeightEngine eng(sc.alg);

  std::vector<TopologyDelta> seq;
  for (int i = 0; i < 13; ++i) {
    const int a = ((i / 2) * 7919) % arcs;
    seq.push_back(i % 2 == 0 ? TopologyDelta{}.arc_down(a)
                             : TopologyDelta{}.arc_up(a));
  }
  TopologyDelta all;
  for (const TopologyDelta& d : seq) {
    all.ops.insert(all.ops.end(), d.ops.begin(), d.ops.end());
  }

  std::vector<int> dests;
  for (int v = 0; v < sc.net.num_nodes(); v += 5) dests.push_back(v);

  const compile::WeightEngine* const engines[] = {&eng, nullptr};
  for (const compile::WeightEngine* engine : engines) {
    SCOPED_TRACE(engine ? "flat" : "reference columns");
    serve::Daemon daemon(sc.alg, engine);
    EXPECT_FALSE(daemon.started());
    daemon.start(sc.net, dests, sc.origin);
    ASSERT_TRUE(daemon.started());
    EXPECT_EQ(daemon.rib().batched_flat(), engine != nullptr);

    // One wire frame per drain, so every update's stats can be read: each
    // must be warm and change an arc.
    for (const TopologyDelta& d : seq) {
      stream::BufferSource frame(stream::encode_stream({d}));
      ASSERT_EQ(daemon.drain(frame), 1u);
      EXPECT_FALSE(daemon.rib().last_update().cold);
      EXPECT_GT(daemon.rib().last_update().changed_arcs, 0);
    }
    EXPECT_EQ(daemon.stats().decode_errors, 0u);
    EXPECT_EQ(daemon.stats().deltas_consumed, seq.size());
    EXPECT_EQ(daemon.stats().warm_updates, seq.size());
    EXPECT_EQ(daemon.stats().cold_updates, 0u);
    EXPECT_EQ(daemon.rib().batched_flat(), engine != nullptr);

    // One batch of all ops onto a fresh table, warm and then cold.
    rib::RibSolver batch(sc.alg, engine);
    batch.solve(sc.net, dests, sc.origin);
    batch.update(all);
    EXPECT_FALSE(batch.last_update().cold);
    rib::RibSolver cold(sc.alg, engine);
    cold.solve(sc.net, dests, sc.origin);
    const bool dyn_was = dyn::enabled();
    dyn::set_enabled(false);
    cold.update(all);
    dyn::set_enabled(dyn_was);
    EXPECT_TRUE(cold.last_update().cold);

    ASSERT_EQ(daemon.rib().num_columns(), cold.num_columns());
    for (int c = 0; c < cold.num_columns(); ++c) {
      for (const rib::RibSolver* ref : {&batch, &cold}) {
        ASSERT_EQ(daemon.rib().column_converged(c), ref->column_converged(c));
        if (!ref->column_converged(c)) continue;
        expect_identical(daemon.rib().routing(c), ref->routing(c),
                         (ref == &cold ? "daemon vs cold col "
                                       : "daemon vs batch col ") +
                             std::to_string(c));
      }
    }
  }
}

TEST(Serve, ArcFlapEmitsWithdrawalAndRestoration) {
  // Line 0 <- 1 <- 2: node 2 reaches dest 0 only through node 1's arc.
  Digraph g(3);
  const int a10 = g.add_arc(1, 0);
  const int a21 = g.add_arc(2, 1);
  const int n = 3;
  OrderTransform ot{"chain(<=,sat+)", ord_chain(n), fam_chain_add(n, 1, 1),
                    {}};
  LabeledGraph net(std::move(g), {I(1), I(1)});

  serve::Daemon daemon(ot);
  daemon.start(net, {0}, I(0));

  std::vector<serve::RouteChange> events;
  const auto sink = [&events](const serve::RouteChange& ev) {
    events.push_back(ev);
  };

  // Down the 1->0 arc: both 1 and 2 lose their route.
  std::size_t changes = daemon.apply(TopologyDelta{}.arc_down(a10), sink);
  EXPECT_EQ(changes, 2u);
  ASSERT_EQ(events.size(), 2u);
  for (const serve::RouteChange& ev : events) {
    EXPECT_EQ(ev.update_index, 0u);
    EXPECT_EQ(ev.column, 0);
    EXPECT_EQ(ev.dest, 0);
    EXPECT_TRUE(ev.had_route);
    EXPECT_FALSE(ev.has_route);
    EXPECT_EQ(ev.next_arc, -1);
  }
  EXPECT_EQ(daemon.stats().withdrawals, 2u);

  // Restore it: both routes come back with their original witness arcs.
  events.clear();
  changes = daemon.apply(TopologyDelta{}.arc_up(a10), sink);
  EXPECT_EQ(changes, 2u);
  ASSERT_EQ(events.size(), 2u);
  for (const serve::RouteChange& ev : events) {
    EXPECT_EQ(ev.update_index, 1u);
    EXPECT_FALSE(ev.had_route);
    EXPECT_TRUE(ev.has_route);
    EXPECT_EQ(ev.next_arc, ev.node == 1 ? a10 : a21);
  }

  // A delta that changes nothing emits nothing.
  events.clear();
  changes = daemon.apply(TopologyDelta{}, sink);
  EXPECT_EQ(changes, 0u);
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(daemon.stats().route_changes, 4u);
  EXPECT_EQ(daemon.stats().deltas_consumed, 3u);
}

TEST(Serve, MetricsPresentInJsonAndOpenMetrics) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::registry().reset();

  Digraph g(2);
  g.add_arc(1, 0);
  OrderTransform ot{"chain(<=,sat+)", ord_chain(2), fam_chain_add(2, 1, 1),
                    {}};
  LabeledGraph net(std::move(g), {I(1)});

  serve::Daemon daemon(ot);
  daemon.start(net, {0}, I(0));
  daemon.apply(TopologyDelta{}.arc_down(0));

  std::ostringstream json;
  obs::registry().write_json(json);
  const std::string j = json.str();
  EXPECT_NE(j.find("serve.deltas_consumed"), std::string::npos) << j;
  EXPECT_NE(j.find("serve.route_changes"), std::string::npos) << j;
  EXPECT_NE(j.find("serve.update_ns"), std::string::npos) << j;

  std::ostringstream om;
  obs::registry().write_openmetrics(om);
  const std::string m = om.str();
  EXPECT_NE(m.find("mrt_serve_deltas_consumed_total"), std::string::npos)
      << m;
  EXPECT_NE(m.find("mrt_serve_route_changes_total"), std::string::npos) << m;
  EXPECT_NE(m.find("mrt_serve_update_ns"), std::string::npos) << m;

  // The histogram actually observed the update.
  EXPECT_GE(obs::registry().histogram("serve.update_ns").count(), 1u);
  obs::set_enabled(was_enabled);
}

void expect_same_table(const rib::RibSolver& a, const rib::RibSolver& b,
                       const std::string& what) {
  const dyn::DynNet& na = a.net();
  const dyn::DynNet& nb = b.net();
  ASSERT_EQ(na.version(), nb.version()) << what;
  for (int id = 0; id < na.graph().num_arcs(); ++id) {
    ASSERT_EQ(na.arc_admin_up(id), nb.arc_admin_up(id)) << what << " arc " << id;
    ASSERT_EQ(na.label(id), nb.label(id)) << what << " arc " << id;
  }
  for (int v = 0; v < na.num_nodes(); ++v) {
    ASSERT_EQ(na.node_up(v), nb.node_up(v)) << what << " node " << v;
  }
  ASSERT_EQ(a.num_columns(), b.num_columns()) << what;
  for (int c = 0; c < a.num_columns(); ++c) {
    expect_identical(a.routing(c), b.routing(c),
                     what + " col " + std::to_string(c));
  }
}

// Each bad batch must throw from a flat table, a reference-column table and
// a daemon, and leave each exactly as its twin that never saw it: the same
// version, the same engine and the same bytes in every column. The good
// batch then lands on all six alike.
void expect_rejected(const OrderTransform& alg, const LabeledGraph& net,
                     const std::vector<int>& dests, const Value& origin,
                     const std::vector<TopologyDelta>& bad,
                     const TopologyDelta& good) {
  const compile::WeightEngine eng(alg);
  rib::RibSolver flat(alg, &eng);
  rib::RibSolver flat_twin(alg, &eng);
  rib::RibSolver ref(alg);
  rib::RibSolver ref_twin(alg);
  for (rib::RibSolver* r : {&flat, &flat_twin, &ref, &ref_twin}) {
    r->solve(net, dests, origin);
  }
  serve::Daemon daemon(alg, &eng);
  serve::Daemon daemon_twin(alg, &eng);
  daemon.start(net, dests, origin);
  daemon_twin.start(net, dests, origin);
  ASSERT_TRUE(flat.batched_flat());
  ASSERT_TRUE(daemon.rib().batched_flat());
  ASSERT_FALSE(ref.batched_flat());

  const std::vector<std::pair<const rib::RibSolver*, const rib::RibSolver*>>
      twins = {{&flat, &flat_twin},
               {&ref, &ref_twin},
               {&daemon.rib(), &daemon_twin.rib()}};
  for (const TopologyDelta& d : bad) {
    EXPECT_THROW(flat.update(d), std::logic_error) << d.describe();
    EXPECT_THROW(ref.update(d), std::logic_error) << d.describe();
    EXPECT_THROW(daemon.apply(d), std::logic_error) << d.describe();
    for (const auto& [a, b] : twins) {
      EXPECT_EQ(a->batched_flat(), b->batched_flat()) << d.describe();
      expect_same_table(*a, *b, "rejected " + d.describe());
    }
  }
  EXPECT_EQ(daemon.stats().deltas_consumed, 0u);

  for (rib::RibSolver* r : {&flat, &flat_twin, &ref, &ref_twin}) {
    r->update(good);
  }
  const std::size_t changes = daemon.apply(good);
  EXPECT_GT(changes, 0u);
  EXPECT_EQ(changes, daemon_twin.apply(good));
  EXPECT_EQ(daemon.stats().route_changes, daemon_twin.stats().route_changes);
  for (const auto& [a, b] : twins) {
    EXPECT_EQ(a->batched_flat(), b->batched_flat());
    expect_same_table(*a, *b, "good " + good.describe());
  }
  expect_same_table(flat, ref, "flat vs reference");
}

// The bad batches down a witness arc and then name a node that does not
// exist, relabel that arc past the family's table or with a wrong-carrier
// label, raise a chain-add label past its range, or give hop count a cost
// other than 1. Each must throw before the arc goes down or the label
// changes anywhere.
TEST(Serve, RejectedBatchLeavesEveryTableUntouched) {
  {
    SCOPED_TRACE("gao_rexford");
    Rng rng(0x5E13);
    const Scenario sc = gao_rexford_hierarchy(rng, 32, 16);
    const int n = sc.net.num_nodes();
    std::vector<int> dests;
    for (int v = 0; v < n; v += 3) dests.push_back(v);
    const compile::WeightEngine eng(sc.alg);
    rib::RibSolver probe(sc.alg, &eng);
    probe.solve(sc.net, dests, sc.origin);
    int w = -1;  // an arc some route of column 0 forwards over
    for (int v = 0; v < n && w < 0; ++v) w = probe.routing(0).next_arc[v];
    ASSERT_GE(w, 0);
    expect_rejected(sc.alg, sc.net, dests, sc.origin,
                    {TopologyDelta{}.arc_down(w).node_down(n + 7),
                     TopologyDelta{}.arc_down(w).relabel(w, I(3)),
                     TopologyDelta{}.arc_down(w).relabel(
                         w, Value::pair(I(1), I(2)))},
                    TopologyDelta{}.arc_down(w));
  }
  {
    SCOPED_TRACE("chain_add");
    // Line 0 <- 1 <- 2 over saturating +1 on {0..8}.
    Digraph g(3);
    const int a10 = g.add_arc(1, 0);
    const int a21 = g.add_arc(2, 1);
    const OrderTransform ot{"chain(<=,sat+)", ord_chain(8),
                            fam_chain_add(8, 1, 1), {}};
    const LabeledGraph net(std::move(g), {I(1), I(1)});
    expect_rejected(ot, net, {0, 1, 2}, I(0),
                    {TopologyDelta{}.relabel(a21, I(1000))},
                    TopologyDelta{}.arc_down(a10));
  }
  {
    SCOPED_TRACE("hop_count");
    const Scenario sc = good_gadget_hops();
    expect_rejected(sc.alg, sc.net, {0, 1, 2, 3}, sc.origin,
                    {TopologyDelta{}.relabel(0, I(0)),
                     TopologyDelta{}.relabel(0, I(7)),
                     TopologyDelta{}.relabel(0, I(-5))},
                    TopologyDelta{}.arc_down(0));
  }
}

/// A bad variant of `good`, for the scenario `sc` at state `net`: one op is
/// inserted at a random position that names an arc or node id out of
/// range, relabels an arc with a label of the wrong carrier shape, or
/// relabels it with a well-shaped label outside the algebra's family.
/// `kind` picks which (0..3).
TopologyDelta bad_variant(Rng& rng, const Scenario& sc, const dyn::DynNet& net,
                          const TopologyDelta& good, int kind) {
  const int m = net.graph().num_arcs();
  const int n = net.num_nodes();
  const int a = static_cast<int>(rng.below(static_cast<std::uint64_t>(m)));
  const bool ladder = sc.net.label(0).is_tuple();
  const Value gr = ladder ? net.label(a).first().first() : net.label(a);
  dyn::DeltaOp op;
  op.kind = dyn::DeltaOp::Kind::Relabel;
  op.arc = a;
  switch (kind) {
    case 0:  // arc id out of range
      op.kind = rng.chance(0.5) ? dyn::DeltaOp::Kind::ArcDown
                                : dyn::DeltaOp::Kind::Relabel;
      op.arc = rng.chance(0.5) ? m + static_cast<int>(rng.below(5)) : -1;
      op.label = net.label(a);
      break;
    case 1:  // node id out of range
      op.kind = rng.chance(0.5) ? dyn::DeltaOp::Kind::NodeDown
                                : dyn::DeltaOp::Kind::NodeUp;
      op.arc = -1;
      op.node = rng.chance(0.5) ? n + static_cast<int>(rng.below(5)) : -2;
      break;
    case 2: {  // wrong carrier
      const ValueVec wrong = {
          ladder ? gr : Value::pair(I(1), I(2)), Value::inf(),
          Value::real(0.5), Value::tagged(1, gr),
          ladder ? Value::pair(gr, I(3)) : Value::unit()};
      op.label = rng.pick(wrong);
      break;
    }
    default: {  // out of the family: a relationship past the table, or (on
                // the ladder) an AS hop other than 1 or an IGP cost
                // outside 1..9
      const ValueVec outside =
          ladder ? ValueVec{mrt::testing::igp_label(gr, -1),
                            mrt::testing::igp_label(gr, 10),
                            mrt::testing::igp_label(I(3), 5),
                            Value::pair(Value::pair(gr, I(2)), I(4))}
                 : ValueVec{I(3), I(-1)};
      op.label = rng.pick(outside);
      break;
    }
  }
  TopologyDelta bad = good;
  const std::size_t at = rng.below(bad.ops.size() + 1);
  bad.ops.insert(bad.ops.begin() + static_cast<std::ptrdiff_t>(at),
                 std::move(op));
  return bad;
}

// Three sources of route changes agree on every frame: a flat daemon (the
// table diffs the words of its dirty lanes), a reference-column daemon (the
// table diffs boxed Routings) and a boxed before/after diff of the flat
// daemon's routing(c), computed here — 2 × 260 random frames on a
// Gao–Rexford hierarchy and on the igp lex ladder. Before every 12th frame
// both daemons drain a bad variant of it through the wire (encode_delta,
// then BufferSource): it must throw and leave every column as the last
// good frame left it. The ladder's variant at frame 230 relabels arc 0 to
// IGP cost -1. The flat daemon stays on the flat kernels throughout.
TEST(Serve, RouteChangesAgreeAcrossFlatReferenceAndBoxedDiff) {
  constexpr int kFrames = 260;
  constexpr int kRejectEvery = 12;
  constexpr int kCostBelowFamilyAt = 230;
  using Key = std::tuple<std::uint64_t, int, int, int, bool, bool, int>;
  const auto key = [](const serve::RouteChange& ev) {
    return Key{ev.update_index, ev.column, ev.dest, ev.node, ev.had_route,
               ev.has_route, ev.next_arc};
  };
  long total = 0;
  for (int scenario = 0; scenario < 2; ++scenario) {
    Rng rng(par::mix_seed(0x5E14, static_cast<std::uint64_t>(scenario)));
    const Scenario sc = scenario == 0 ? gao_rexford_hierarchy(rng, 40, 24)
                                      : mrt::testing::igp_ladder(rng, 40, 24);
    SCOPED_TRACE(scenario == 0 ? "gao_rexford" : "igp ladder");
    const compile::WeightEngine eng(sc.alg);
    std::vector<int> dests;
    for (int v = 0; v < sc.net.num_nodes(); v += 3) dests.push_back(v);
    serve::Daemon flat(sc.alg, &eng);
    serve::Daemon ref(sc.alg);
    flat.start(sc.net, dests, sc.origin);
    ref.start(sc.net, dests, sc.origin);
    ASSERT_TRUE(flat.rib().batched_flat());

    std::vector<Key> from_flat;
    std::vector<Key> from_ref;
    const auto to_flat = [&](const serve::RouteChange& ev) {
      from_flat.push_back(key(ev));
    };
    const auto to_ref = [&](const serve::RouteChange& ev) {
      from_ref.push_back(key(ev));
    };
    std::vector<Routing> before(dests.size());
    for (std::size_t c = 0; c < dests.size(); ++c) {
      before[c] = flat.rib().routing(static_cast<int>(c));
    }
    int rejected = 0;
    for (int f = 0; f < kFrames; ++f) {
      TopologyDelta d = mrt::testing::random_frame(rng, sc, flat.rib().net());
      if (f % kRejectEvery == kCostBelowFamilyAt % kRejectEvery) {
        TopologyDelta bad =
            bad_variant(rng, sc, flat.rib().net(), d, rejected % 4);
        if (scenario == 1 && f == kCostBelowFamilyAt) {
          const Value& gr = flat.rib().net().label(0).first().first();
          bad = d;
          bad.relabel(0, mrt::testing::igp_label(gr, -1));
        }
        ++rejected;
        std::vector<std::uint8_t> bytes;
        stream::encode_delta(bad, bytes);
        const std::string what = "rejected " + bad.describe();
        const std::uint64_t version = flat.rib().net().version();
        stream::BufferSource flat_wire(bytes);
        stream::BufferSource ref_wire(bytes);
        from_flat.clear();
        from_ref.clear();
        EXPECT_THROW(flat.drain(flat_wire, to_flat), std::logic_error) << what;
        EXPECT_THROW(ref.drain(ref_wire, to_ref), std::logic_error) << what;
        EXPECT_TRUE(from_flat.empty() && from_ref.empty()) << what;
        for (const serve::Daemon* dm : {&flat, &ref}) {
          ASSERT_EQ(dm->rib().net().version(), version) << what;
          for (std::size_t c = 0; c < dests.size(); ++c) {
            expect_identical(dm->rib().routing(static_cast<int>(c)), before[c],
                             what + " col " + std::to_string(c));
          }
        }
      }
      const std::string what =
          "frame " + std::to_string(f) + " " + d.describe();
      from_flat.clear();
      from_ref.clear();
      const std::size_t nf = flat.apply(d, to_flat);
      const std::size_t nr = ref.apply(d, to_ref);
      EXPECT_TRUE(flat.rib().batched_flat()) << what;
      std::vector<Key> boxed;
      const std::uint64_t index = flat.stats().deltas_consumed - 1;
      for (std::size_t c = 0; c < dests.size(); ++c) {
        const Routing& r = flat.rib().routing(static_cast<int>(c));
        for (std::size_t v = 0; v < r.weight.size(); ++v) {
          const bool had = before[c].weight[v].has_value();
          const bool has = r.weight[v].has_value();
          if (had == has &&
              (!has || (before[c].next_arc[v] == r.next_arc[v] &&
                        *before[c].weight[v] == *r.weight[v]))) {
            continue;
          }
          boxed.push_back(Key{index, static_cast<int>(c), dests[c],
                              static_cast<int>(v), had, has,
                              has ? r.next_arc[v] : -1});
        }
        before[c] = r;
      }
      ASSERT_EQ(from_flat, boxed) << what;
      ASSERT_EQ(from_ref, boxed) << what;
      EXPECT_EQ(nf, boxed.size()) << what;
      EXPECT_EQ(nr, boxed.size()) << what;
      total += static_cast<long>(boxed.size());
    }
    EXPECT_GE(rejected, 20);
    EXPECT_EQ(flat.stats().route_changes, ref.stats().route_changes);
    EXPECT_EQ(flat.stats().withdrawals, ref.stats().withdrawals);
    EXPECT_EQ(flat.stats().deltas_consumed,
              static_cast<std::uint64_t>(kFrames));
  }
  EXPECT_GT(total, 2000);
}

TEST(Serve, MissingFileAndCorruptStreamTerminateGracefully) {
  Digraph g(2);
  g.add_arc(1, 0);
  OrderTransform ot{"chain(<=,sat+)", ord_chain(2), fam_chain_add(2, 1, 1),
                    {}};
  LabeledGraph net(std::move(g), {I(1)});

  serve::Daemon daemon(ot);
  daemon.start(net, {0}, I(0));

  stream::FileSource missing("/nonexistent/mrt-no-such-replay.bin");
  EXPECT_EQ(daemon.drain(missing), 0u);
  EXPECT_EQ(daemon.stats().decode_errors, 1u);
  EXPECT_FALSE(missing.error().empty());

  // One good frame followed by garbage: the good frame applies, then the
  // drain stops with a decode error — the table stays at the last good batch.
  std::vector<std::uint8_t> bytes;
  stream::encode_delta(TopologyDelta{}.arc_down(0), bytes);
  bytes.push_back(0xFF);
  stream::BufferSource corrupt(bytes);
  EXPECT_EQ(daemon.drain(corrupt), 1u);
  EXPECT_EQ(daemon.stats().decode_errors, 2u);
  EXPECT_FALSE(corrupt.error().empty());
  EXPECT_FALSE(daemon.rib().routing(0).has_route(1));
  // Draining the failed stream again applies nothing and counts nothing:
  // one failure, one decode error.
  EXPECT_EQ(daemon.drain(corrupt), 0u);
  EXPECT_EQ(daemon.stats().decode_errors, 2u);
}

}  // namespace
}  // namespace mrt
