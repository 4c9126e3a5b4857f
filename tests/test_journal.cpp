// The convergence flight recorder (mrt::obs journal): enable gating, global
// ordering, ring overflow (newest-wins flight-recorder semantics), reset,
// concurrent producers racing a mid-run drain, describe() determinism across
// replays, span bracketing, and the two query layers on top: the provenance
// index + explain_route, and the Chrome trace exporter.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mrt/compile/engine.hpp"
#include "mrt/obs/chrome_trace.hpp"
#include "mrt/obs/provenance.hpp"
#include "mrt/rib/rib.hpp"
#include "mrt/sim/scenario.hpp"

namespace mrt {
namespace {

using obs::EventKind;
using obs::Subsystem;

// Every test runs against the process-global journal, so each one starts
// from a clean enabled window and restores the previous enable state.
class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_ = obs::journal_enabled();
    obs::set_journal_enabled(true);
    obs::journal().reset();
  }
  void TearDown() override {
    obs::journal().set_capacity(obs::Journal::kDefaultCapacity);
    obs::journal().reset();
    obs::set_journal_enabled(was_);
  }
  bool was_ = false;
};

TEST_F(JournalTest, DisabledRecordsNothing) {
  obs::set_journal_enabled(false);
  EXPECT_FALSE(obs::journal_enabled());
  obs::jrecord(Subsystem::Dyn, EventKind::SolveBegin, 1, 0, -1);
  EXPECT_EQ(obs::journal().recorded(), 0u);
  EXPECT_TRUE(obs::journal().drain().empty());

  obs::set_journal_enabled(true);
  obs::jrecord(Subsystem::Dyn, EventKind::SolveBegin, 1, 0, -1);
  EXPECT_EQ(obs::journal().recorded(), 1u);
}

TEST_F(JournalTest, RecordsCarryFieldsInGlobalOrder) {
  obs::jrecord(Subsystem::Dyn, EventKind::WitnessAttach, 7, 3, 12, -5, 4);
  obs::jrecord(Subsystem::Sim, EventKind::MsgSend, 8, 1, 2, 1, 0, 1500);
  const auto log = obs::journal().drain();
  ASSERT_EQ(log.size(), 2u);

  EXPECT_EQ(log[0].seq, 1u);
  EXPECT_EQ(log[0].subsystem, Subsystem::Dyn);
  EXPECT_EQ(log[0].kind, EventKind::WitnessAttach);
  EXPECT_EQ(log[0].stream, 7u);
  EXPECT_EQ(log[0].node, 3);
  EXPECT_EQ(log[0].arc, 12);
  EXPECT_EQ(log[0].aux, -5);
  EXPECT_EQ(log[0].version, 4u);

  EXPECT_EQ(log[1].seq, 2u);
  EXPECT_EQ(log[1].subsystem, Subsystem::Sim);
  EXPECT_EQ(log[1].sim_us, 1500u);

  // Drain clears the rings but not the acceptance counter.
  EXPECT_TRUE(obs::journal().drain().empty());
  EXPECT_EQ(obs::journal().recorded(), 2u);
}

TEST_F(JournalTest, SnapshotDoesNotConsume) {
  obs::jrecord(Subsystem::Dyn, EventKind::RelaxWave, 1, -1, -1, 3);
  EXPECT_EQ(obs::journal().snapshot().size(), 1u);
  EXPECT_EQ(obs::journal().snapshot().size(), 1u);
  EXPECT_EQ(obs::journal().drain().size(), 1u);
  EXPECT_TRUE(obs::journal().snapshot().empty());
}

TEST_F(JournalTest, OverflowKeepsNewestAndCountsDrops) {
  obs::journal().set_capacity(8);
  obs::journal().reset();
  for (int i = 0; i < 20; ++i) {
    obs::jrecord(Subsystem::Dyn, EventKind::RelaxSettle, 1, i, -1, i);
  }
  const auto log = obs::journal().drain();
  ASSERT_EQ(log.size(), 8u);
  EXPECT_EQ(obs::journal().dropped(), 12u);
  EXPECT_EQ(obs::journal().recorded(), 20u);
  // Flight-recorder semantics: the 8 *newest* records survive, in order.
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].aux, static_cast<std::int64_t>(12 + i));
    if (i > 0) EXPECT_LT(log[i - 1].seq, log[i].seq);
  }
}

TEST_F(JournalTest, ResetRestartsSequenceStreamsAndDrops) {
  obs::journal().set_capacity(4);
  obs::journal().reset();
  (void)obs::journal_next_stream();
  for (int i = 0; i < 9; ++i) {
    obs::jrecord(Subsystem::Dyn, EventKind::RelaxWave, 1, -1, -1, i);
  }
  EXPECT_GT(obs::journal().dropped(), 0u);

  obs::journal().set_capacity(obs::Journal::kDefaultCapacity);
  obs::journal().reset();
  EXPECT_EQ(obs::journal().dropped(), 0u);
  EXPECT_EQ(obs::journal().recorded(), 0u);
  EXPECT_TRUE(obs::journal().snapshot().empty());
  // Both the seq counter and the stream numbering restart with the window.
  EXPECT_EQ(obs::journal_next_stream(), 1u);
  obs::jrecord(Subsystem::Dyn, EventKind::SolveBegin, 1, 0, -1);
  EXPECT_EQ(obs::journal().drain().at(0).seq, 1u);
}

// The TSan target: producers on several threads appending while the main
// thread drains mid-run. Nothing may be lost or duplicated (rings are big
// enough that overflow cannot occur).
TEST_F(JournalTest, ConcurrentProducersSurviveMidRunDrains) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<obs::JournalRecord> all;
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([t] {
      const std::uint32_t stream = static_cast<std::uint32_t>(100 + t);
      for (int i = 0; i < kPerThread; ++i) {
        obs::jrecord(Subsystem::Sim, EventKind::MsgDeliver, stream, t, i, i);
      }
    });
  }
  // Drain concurrently with the producers, accumulating what we get.
  for (int spins = 0; spins < 50; ++spins) {
    const auto part = obs::journal().drain();
    all.insert(all.end(), part.begin(), part.end());
  }
  for (auto& th : producers) th.join();
  const auto rest = obs::journal().drain();
  all.insert(all.end(), rest.begin(), rest.end());

  EXPECT_EQ(obs::journal().dropped(), 0u);
  ASSERT_EQ(all.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  std::set<std::uint64_t> seqs;
  std::vector<int> per_stream(kThreads, 0);
  for (const obs::JournalRecord& r : all) {
    EXPECT_TRUE(seqs.insert(r.seq).second) << "duplicate seq " << r.seq;
    ASSERT_GE(r.stream, 100u);
    ASSERT_LT(r.stream, 100u + kThreads);
    ++per_stream[r.stream - 100];
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(per_stream[t], kPerThread);
}

// A deterministic solve/update replayed after reset() renders identical
// describe() lines — the property the chaos journal-replay test builds on.
// describe() excludes wall-clock time and reset() restarts stream numbering
// precisely to make this hold.
TEST_F(JournalTest, DescribeIsDeterministicAcrossReplays) {
  const auto run = [] {
    obs::journal().reset();
    Scenario sc = good_gadget_hops();
    auto solver = dyn::make_solver(dyn::EngineKind::Dijkstra, sc.alg);
    solver->solve(sc.net, sc.dest, sc.origin);
    dyn::TopologyDelta d;
    d.arc_down(0);
    solver->update(d);
    std::string out;
    for (const obs::JournalRecord& r : obs::journal().drain()) {
      out += r.describe();
      out += '\n';
    }
    return out;
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// Every SolveBegin/UpdateBegin is closed by an UpdateEnd of its stream, no-op
// batches included (an empty batch, and a relabel of the arc while it is
// down), so the trace can draw every solve and update as one span.
TEST_F(JournalTest, EveryUpdateBeginIsClosed) {
  const Scenario sc = good_gadget_hops();
  const compile::WeightEngine eng(sc.alg);
  std::vector<dyn::TopologyDelta> batches(4);
  batches[1].arc_down(0);
  batches[2].relabel(0, sc.net.label(0));
  batches[3].arc_up(0);

  auto dijkstra = dyn::make_solver(dyn::EngineKind::Dijkstra, sc.alg);
  auto bellman = dyn::make_solver(dyn::EngineKind::Bellman, sc.alg);
  rib::RibSolver flat(sc.alg, &eng);
  rib::RibSolver refs(sc.alg);
  dijkstra->solve(sc.net, sc.dest, sc.origin);
  bellman->solve(sc.net, sc.dest, sc.origin);
  flat.solve_all(sc.net, sc.origin);
  refs.solve_all(sc.net, sc.origin);
  ASSERT_TRUE(flat.batched_flat());
  ASSERT_FALSE(refs.batched_flat());
  for (const dyn::TopologyDelta& d : batches) {
    dijkstra->update(d);
    bellman->update(d);
    flat.update(d);
    refs.update(d);
  }

  const std::vector<obs::JournalRecord> log = obs::journal().drain();
  ASSERT_EQ(obs::journal().dropped(), 0u);
  std::map<std::uint32_t, int> open;  // stream -> unclosed begins
  std::size_t begins = 0;
  for (const obs::JournalRecord& r : log) {
    if (r.kind == EventKind::SolveBegin || r.kind == EventKind::UpdateBegin) {
      EXPECT_EQ(open[r.stream]++, 0) << "nested begin: " << r.describe();
      ++begins;
    } else if (r.kind == EventKind::UpdateEnd) {
      EXPECT_EQ(open[r.stream]--, 1) << "end without begin: " << r.describe();
    }
  }
  for (const auto& [stream, n] : open) {
    EXPECT_EQ(n, 0) << "stream " << stream << " left a begin open";
  }
  // The two standalone solvers and the two tables each bind once and take
  // every batch; the reference columns add their own streams on top.
  EXPECT_GT(begins, 4u * (1 + batches.size()));
}

// The trace is a lossless view of the journal: every record is one trace
// event, except that a paired begin and end are one 'X' together.
TEST_F(JournalTest, ChromeTraceHasOneEventPerRecord) {
  const Scenario bad = bad_gadget();
  SimOptions opts;
  opts.seed = 7;
  opts.max_events = 500;
  opts.drop_top_routes = true;
  PathVectorSim sim(bad.alg, bad.net, bad.dest, bad.origin, opts);
  sim.run();

  const Scenario sc = good_gadget_hops();
  auto solver = dyn::make_solver(dyn::EngineKind::Bellman, sc.alg);
  solver->solve(sc.net, sc.dest, sc.origin);
  dyn::TopologyDelta down;
  down.arc_down(0);
  solver->update(down);
  solver->update(dyn::TopologyDelta{});

  const std::vector<obs::JournalRecord> log = obs::journal().drain();
  ASSERT_EQ(obs::journal().dropped(), 0u);
  std::size_t ends = 0;
  for (const obs::JournalRecord& r : log) {
    if (r.kind == EventKind::UpdateEnd) ++ends;
  }
  std::ostringstream out;
  obs::write_chrome_trace(out, log);
  const std::string trace = out.str();
  const auto count = [&trace](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = trace.find(needle); at != std::string::npos;
         at = trace.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  const std::size_t x = count("\"ph\":\"X\"");
  const std::size_t i = count("\"ph\":\"i\"");
  const std::size_t c = count("\"ph\":\"C\"");
  EXPECT_EQ(x, ends);
  EXPECT_GE(c, 1u);
  EXPECT_EQ(2 * x + i + c, log.size());
}

// ---------------------------------------------------------------------------
// Provenance index + explain_route
// ---------------------------------------------------------------------------

TEST_F(JournalTest, ProvenanceIndexLastWinsPerStream) {
  obs::jrecord(Subsystem::Dyn, EventKind::WitnessAttach, 1, 5, 10, 0, 0);
  obs::jrecord(Subsystem::Dyn, EventKind::DeltaArc, 1, 2, 7, 0, 1);
  obs::jrecord(Subsystem::Dyn, EventKind::DeltaNodeDown, 1, 4, -1, 0, 1);
  obs::jrecord(Subsystem::Dyn, EventKind::WitnessInvalidate, 1, 5, 10, 0, 1);
  obs::jrecord(Subsystem::Dyn, EventKind::WitnessAttach, 1, 5, 11, 0, 1);
  obs::jrecord(Subsystem::Dyn, EventKind::WitnessAttach, 2, 5, 12, 0, 3);
  obs::jrecord(Subsystem::Dyn, EventKind::WitnessClear, 1, 6, -1, 0, 1);
  const obs::ProvenanceIndex idx(obs::journal().drain());

  const obs::JournalRecord* a = idx.last_attach(1, 5);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->arc, 11);  // later attach wins
  EXPECT_EQ(a->version, 1u);
  ASSERT_NE(idx.last_attach(2, 5), nullptr);
  EXPECT_EQ(idx.last_attach(2, 5)->arc, 12);  // streams are independent
  EXPECT_EQ(idx.last_attach(1, 99), nullptr);
  EXPECT_EQ(idx.last_attach(3, 5), nullptr);

  ASSERT_NE(idx.last_invalidate(1, 5), nullptr);
  EXPECT_EQ(idx.last_invalidate(1, 5)->arc, 10);
  ASSERT_NE(idx.last_clear(1, 6), nullptr);

  const auto ops = idx.delta_records(1, 1);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0]->kind, EventKind::DeltaArc);
  EXPECT_EQ(ops[0]->arc, 7);
  EXPECT_EQ(ops[1]->kind, EventKind::DeltaNodeDown);
  EXPECT_TRUE(idx.delta_records(1, 2).empty());
  EXPECT_TRUE(idx.delta_records(2, 1).empty());
}

TEST_F(JournalTest, ExplainRouteMatchesWitnessForest) {
  Scenario sc = good_gadget_hops();
  auto solver = dyn::make_solver(dyn::EngineKind::Dijkstra, sc.alg);
  solver->solve(sc.net, sc.dest, sc.origin);
  dyn::TopologyDelta d;
  d.arc_down(solver->routing().next_arc[1]);
  solver->update(d);

  const obs::ProvenanceIndex idx(obs::journal().snapshot());
  const Routing& r = solver->routing();
  for (int v = 0; v < sc.net.num_nodes(); ++v) {
    const obs::ExplainReport rep = obs::explain_route(*solver, v, idx);
    EXPECT_EQ(rep.node, v);
    EXPECT_EQ(rep.dest, sc.dest);
    EXPECT_EQ(rep.stream, solver->journal_stream());
    ASSERT_EQ(rep.has_route, r.has_route(v));
    EXPECT_FALSE(rep.loop);
    if (!rep.has_route) continue;
    const auto fp = forwarding_path(sc.net, r, v, sc.dest);
    ASSERT_TRUE(fp.has_value());
    ASSERT_EQ(rep.hops.size(), fp->size());
    for (std::size_t i = 0; i < rep.hops.size(); ++i) {
      const obs::ExplainHop& h = rep.hops[i];
      EXPECT_EQ(h.node, (*fp)[i]);
      EXPECT_EQ(h.arc, r.next_arc[static_cast<std::size_t>(h.node)]);
      // The settling attach record must name the live witness arc.
      const obs::JournalRecord* a =
          idx.last_attach(solver->journal_stream(), h.node);
      ASSERT_NE(a, nullptr);
      EXPECT_EQ(a->arc, h.arc);
      EXPECT_EQ(h.settled_seq, a->seq);
      EXPECT_FALSE(h.cause.empty());
    }
    // The re-routed node settled at v1 with the delta as its cause; the
    // destination still carries its cold-solve attach.
    if (v == sc.dest) {
      EXPECT_EQ(rep.hops[0].settled_version, 0u);
      EXPECT_EQ(rep.hops[0].cause, "initial solve");
    }
  }
}

TEST_F(JournalTest, ExplainRouteReportsNoRouteCause) {
  Scenario sc = good_gadget_hops();
  auto solver = dyn::make_solver(dyn::EngineKind::Dijkstra, sc.alg);
  solver->solve(sc.net, sc.dest, sc.origin);
  // Crash a non-destination node: its route clears and stays clear.
  const int victim = (sc.dest + 1) % sc.net.num_nodes();
  dyn::TopologyDelta d;
  d.node_down(victim);
  solver->update(d);

  const obs::ProvenanceIndex idx(obs::journal().snapshot());
  const obs::ExplainReport rep = obs::explain_route(*solver, victim, idx);
  EXPECT_FALSE(rep.has_route);
  EXPECT_TRUE(rep.hops.empty());
  ASSERT_FALSE(rep.no_route_cause.empty());
  // The cause names the crash delta, not a generic shrug.
  EXPECT_NE(rep.no_route_cause.find("delta_node_down"), std::string::npos)
      << rep.no_route_cause;
  EXPECT_FALSE(rep.to_string().empty());
}

// With the journal disabled during the solve, explain still walks the live
// forest (read from the solver) — only the causal decoration is missing.
TEST_F(JournalTest, ExplainWithoutJournalStillWalksForest) {
  obs::set_journal_enabled(false);
  Scenario sc = good_gadget_hops();
  auto solver = dyn::make_solver(dyn::EngineKind::Dijkstra, sc.alg);
  solver->solve(sc.net, sc.dest, sc.origin);

  const obs::ProvenanceIndex idx(obs::journal().snapshot());
  for (int v = 0; v < sc.net.num_nodes(); ++v) {
    const obs::ExplainReport rep = obs::explain_route(*solver, v, idx);
    EXPECT_EQ(rep.has_route, solver->routing().has_route(v));
    for (const obs::ExplainHop& h : rep.hops) {
      EXPECT_EQ(h.settled_seq, 0u);
      EXPECT_TRUE(h.cause.empty());
    }
  }
}

}  // namespace
}  // namespace mrt
