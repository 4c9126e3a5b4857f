// The delta-stream seam, end to end:
//
//   wire      — ≥1000 random batches round-trip byte-identically through the
//               framed format (every op kind, every Value carrier shape),
//               and truncated / corrupted / wrong-version frames are
//               rejected gracefully (error, never a crash or a bogus delta).
//   drain     — stream-of-N-deltas ≡ one N-op batch ≡ cold re-solve, byte
//               for byte, for ≥500 random delta sequences on both
//               dyn::Solver and rib::RibSolver, sweeping the
//               MRT_COMPILE × MRT_THREADS × MRT_SIMD toggle cube.
//   fast path — an empty TopologyDelta (and a batch whose ops only touch
//               already-dead arcs) is a no-op: version bumps, zero
//               invalidation work, routing untouched.
//   sim       — record_quiescent changes no schedule byte; SimDeltaSource
//               replays a faulted run onto a warm solver and lands exactly
//               on the end-state topology; the replay log survives the wire.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "mrt/chaos/campaign.hpp"
#include "mrt/compile/simd.hpp"
#include "mrt/dyn/solver.hpp"
#include "mrt/graph/generators.hpp"
#include "mrt/par/par.hpp"
#include "mrt/rib/rib.hpp"
#include "mrt/sim/delta_stream.hpp"
#include "mrt/sim/scenario.hpp"
#include "mrt/stream/stream.hpp"
#include "mrt/stream/wire.hpp"
#include "mrt/support/rng.hpp"

namespace mrt {
namespace {

using mrt::testing::I;
using dyn::DeltaOp;
using dyn::TopologyDelta;

// ---------------------------------------------------------------------------
// Wire-format fuzz
// ---------------------------------------------------------------------------

/// A random Value covering every carrier shape the metalanguage constructs:
/// unit, int, real, ∞, ω, (nested) tuples, tagged unions.
Value random_value(Rng& rng, int depth = 0) {
  const std::uint64_t pick = rng.below(depth >= 3 ? 5 : 7);
  switch (pick) {
    case 0:
      return Value::unit();
    case 1:
      return Value::integer(static_cast<std::int64_t>(rng.below(2'000'001)) -
                            1'000'000);
    case 2:
      return Value::real((rng.unit() - 0.5) * 1e9);
    case 3:
      return Value::inf();
    case 4:
      return Value::omega();
    case 5: {
      ValueVec kids;
      const std::uint64_t n = rng.below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        kids.push_back(random_value(rng, depth + 1));
      }
      return Value::tuple(std::move(kids));
    }
    default:
      return Value::tagged(static_cast<int>(rng.below(16)),
                           random_value(rng, depth + 1));
  }
}

/// A random batch mixing all five op kinds (arc/node ids unconstrained —
/// the wire layer is topology-agnostic).
TopologyDelta random_wire_delta(Rng& rng) {
  TopologyDelta d;
  const std::uint64_t ops = rng.below(9);  // empty batches included
  for (std::uint64_t i = 0; i < ops; ++i) {
    const int arc = static_cast<int>(rng.below(10'000));
    const int node = static_cast<int>(rng.below(10'000));
    switch (rng.below(5)) {
      case 0:
        d.arc_down(arc);
        break;
      case 1:
        d.arc_up(arc);
        break;
      case 2:
        d.relabel(arc, random_value(rng));
        break;
      case 3:
        d.node_down(node);
        break;
      default:
        d.node_up(node);
        break;
    }
  }
  return d;
}

void expect_same_delta(const TopologyDelta& a, const TopologyDelta& b,
                       const std::string& what) {
  ASSERT_EQ(a.ops.size(), b.ops.size()) << what;
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    ASSERT_EQ(a.ops[i].kind, b.ops[i].kind) << what << " op " << i;
    ASSERT_EQ(a.ops[i].arc, b.ops[i].arc) << what << " op " << i;
    ASSERT_EQ(a.ops[i].node, b.ops[i].node) << what << " op " << i;
    ASSERT_EQ(a.ops[i].label, b.ops[i].label) << what << " op " << i;
  }
}

TEST(StreamWire, ThousandRandomBatchesRoundTripByteIdentically) {
  constexpr int kBatches = 1200;
  Rng rng(0xBEEF);  // fixed seed
  std::vector<TopologyDelta> deltas;
  deltas.reserve(kBatches);
  for (int i = 0; i < kBatches; ++i) deltas.push_back(random_wire_delta(rng));

  const std::vector<std::uint8_t> bytes = stream::encode_stream(deltas);
  const auto decoded = stream::decode_stream(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  ASSERT_EQ(decoded->size(), deltas.size());
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    expect_same_delta(deltas[i], (*decoded)[i],
                      "batch " + std::to_string(i));
  }
  // Canonical encoding: re-encoding the decoded stream reproduces the exact
  // byte sequence.
  EXPECT_EQ(stream::encode_stream(*decoded), bytes);

  // The pull-based source sees the same sequence, frame by frame.
  stream::BufferSource src(bytes);
  std::size_t n = 0;
  while (auto d = src.next()) {
    expect_same_delta(deltas[n], *d, "source batch " + std::to_string(n));
    ++n;
  }
  EXPECT_EQ(n, deltas.size());
  EXPECT_TRUE(src.error().empty());
}

TEST(StreamWire, RejectsTruncationAtEveryByte) {
  Rng rng(77);
  std::vector<TopologyDelta> deltas;
  for (int i = 0; i < 4; ++i) deltas.push_back(random_wire_delta(rng));
  const std::vector<std::uint8_t> bytes = stream::encode_stream(deltas);

  // Frame boundaries: prefixes ending exactly between frames are valid
  // (shorter) streams; every other prefix must fail, never crash.
  std::vector<std::size_t> boundaries{0};
  {
    std::size_t pos = 0;
    while (pos < bytes.size()) {
      const auto f =
          stream::decode_frame(bytes.data() + pos, bytes.size() - pos, pos);
      ASSERT_TRUE(f.ok());
      pos += f->consumed;
      boundaries.push_back(pos);
    }
  }
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + len);
    const auto r = stream::decode_stream(prefix);
    const bool at_boundary =
        std::find(boundaries.begin(), boundaries.end(), len) !=
        boundaries.end();
    if (at_boundary) {
      ASSERT_TRUE(r.ok()) << "boundary prefix " << len;
    } else {
      ASSERT_FALSE(r.ok()) << "truncated prefix " << len
                           << " decoded without error";
    }
  }
}

TEST(StreamWire, RejectsBadMagicVersionChecksumAndGarbage) {
  TopologyDelta d;
  d.arc_down(3).relabel(4, Value::pair(I(1), I(2))).node_up(5);
  std::vector<std::uint8_t> bytes;
  stream::encode_delta(d, bytes);

  {  // bad magic
    std::vector<std::uint8_t> bad = bytes;
    bad[0] ^= 0xFF;
    const auto r = stream::decode_stream(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("bad magic"), std::string::npos);
  }
  {  // unsupported version
    std::vector<std::uint8_t> bad = bytes;
    bad[4] = 0x7F;
    const auto r = stream::decode_stream(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("unsupported version"),
              std::string::npos);
  }
  {  // payload corruption caught by the checksum
    std::vector<std::uint8_t> bad = bytes;
    bad[stream::kFrameHeaderBytes + 2] ^= 0x40;
    const auto r = stream::decode_stream(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("checksum"), std::string::npos);
  }
  {  // trailing garbage after the last frame
    std::vector<std::uint8_t> bad = bytes;
    bad.push_back('X');
    EXPECT_FALSE(stream::decode_stream(bad).ok());
  }
  {  // a BufferSource surfaces the failure through error(), not a crash
    std::vector<std::uint8_t> bad = bytes;
    bad[0] ^= 0xFF;
    stream::BufferSource src(bad);
    EXPECT_FALSE(src.next().has_value());
    EXPECT_FALSE(src.error().empty());
    EXPECT_FALSE(src.next().has_value());  // stays terminated
  }
}

TEST(StreamWire, FileRoundTripAndMissingFile) {
  Rng rng(99);
  std::vector<TopologyDelta> deltas;
  for (int i = 0; i < 16; ++i) deltas.push_back(random_wire_delta(rng));
  const std::string path =
      ::testing::TempDir() + "/mrt_stream_roundtrip.bin";
  ASSERT_TRUE(stream::write_delta_file(path, deltas));
  const auto back = stream::read_delta_file(path);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  ASSERT_EQ(back->size(), deltas.size());
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    expect_same_delta(deltas[i], (*back)[i], "file batch " + std::to_string(i));
  }
  stream::FileSource src(path);
  std::size_t n = 0;
  while (src.next()) ++n;
  EXPECT_EQ(n, deltas.size());
  EXPECT_TRUE(src.error().empty());

  stream::FileSource missing("/nonexistent/mrt-no-such-file.bin");
  EXPECT_FALSE(missing.next().has_value());
  EXPECT_FALSE(missing.error().empty());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Stream ≡ batch ≡ cold (the refactor's byte-identity contract)
// ---------------------------------------------------------------------------

struct EquivInstance {
  OrderTransform ot;
  LabeledGraph net;
  int label_lo = 1;
  int label_hi = 1;
  std::string desc;
};

/// ⊗ = saturating +c: the increasing shortest-path chain (antisymmetric, so
/// the fixed point — and its canonical witness forest — is unique).
EquivInstance sat_plus_instance(Rng& rng) {
  const int n = 4 + static_cast<int>(rng.below(6));
  const int hi =
      1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n - 1)));
  Digraph g = random_connected(rng, 5 + static_cast<int>(rng.below(6)),
                               3 + static_cast<int>(rng.below(6)));
  ValueVec labels;
  for (int id = 0; id < g.num_arcs(); ++id) {
    labels.push_back(I(rng.range(1, hi)));
  }
  return EquivInstance{OrderTransform{"chain(<=,sat+)", ord_chain(n),
                                      fam_chain_add(n, 1, hi), {}},
                       LabeledGraph(std::move(g), std::move(labels)), 1, hi,
                       "sat_plus n=" + std::to_string(n)};
}

TopologyDelta random_topo_delta(Rng& rng, const EquivInstance& inst) {
  TopologyDelta d;
  const int m = inst.net.graph().num_arcs();
  const int n = inst.net.num_nodes();
  const int ops = 1 + static_cast<int>(rng.below(4));
  for (int i = 0; i < ops; ++i) {
    const int arc = static_cast<int>(rng.below(static_cast<std::uint64_t>(m)));
    const int node =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    switch (rng.below(8)) {
      case 0:
      case 1:
      case 2:
        d.arc_down(arc);
        break;
      case 3:
      case 4:
        d.arc_up(arc);
        break;
      case 5:
        d.relabel(arc, I(rng.range(inst.label_lo, inst.label_hi)));
        break;
      case 6:
        d.node_down(node);
        break;
      default:
        d.node_up(node);
        break;
    }
  }
  return d;
}

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

/// Scoped toggles over the MRT_COMPILE-companion knobs (dyn / threads /
/// simd), restored on exit.
struct ScopedToggles {
  bool dyn_before = dyn::enabled();
  int threads_before = par::thread_limit();
  bool simd_before = compile::simd::enabled();
  ScopedToggles(bool dyn_on, int threads, bool simd_on) {
    dyn::set_enabled(dyn_on);
    par::set_thread_limit(threads);
    compile::simd::set_enabled(simd_on);
  }
  ~ScopedToggles() {
    dyn::set_enabled(dyn_before);
    par::set_thread_limit(threads_before);
    compile::simd::set_enabled(simd_before);
  }
};

// Applies every batch of `s` through `solver.update()`, in stream order, and
// returns the batch count: the drain loop serve::Daemon::drain runs, here
// over a bare dyn::Solver or rib::RibSolver.
template <typename S>
std::size_t drain_updates(S& solver, stream::DeltaStream& s) {
  std::size_t n = 0;
  while (std::optional<TopologyDelta> d = s.next()) {
    solver.update(*d);
    ++n;
  }
  return n;
}

TopologyDelta concat(const std::vector<TopologyDelta>& seq) {
  TopologyDelta all;
  for (const TopologyDelta& d : seq) {
    all.ops.insert(all.ops.end(), d.ops.begin(), d.ops.end());
  }
  return all;
}

// ≥500 random sequences: a drained stream ≡ one batched update() ≡ cold
// re-solve on dyn::Solver, with the wire format in the loop (the stream is
// encoded and decoded per sequence) and the toggle cube swept per trial.
TEST(StreamEquivalence, DynConsumeEqualsBatchEqualsColdAcrossToggleCube) {
  constexpr int kSequences = 288;
  for (int trial = 0; trial < kSequences; ++trial) {
    Rng rng(par::mix_seed(0x5EA3, static_cast<std::uint64_t>(trial)));
    EquivInstance inst = sat_plus_instance(rng);
    inst.desc += " trial " + std::to_string(trial);
    const int dest = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(inst.net.num_nodes())));

    const bool with_engine = (trial % 2 == 0);
    const int threads = (trial % 3 == 0) ? 4 : 1;
    const bool simd_on = (trial % 5 != 4);
    ScopedToggles toggles(/*dyn_on=*/true, threads, simd_on);
    const compile::WeightEngine eng(inst.ot);
    const compile::WeightEngine* weng = with_engine ? &eng : nullptr;
    const auto kind = (trial % 2 == 0) ? dyn::EngineKind::Bellman
                                       : dyn::EngineKind::Dijkstra;

    std::vector<TopologyDelta> seq;
    const int len = 1 + static_cast<int>(rng.below(6));
    for (int i = 0; i < len; ++i) {
      seq.push_back(random_topo_delta(rng, inst));
    }

    // A: drain the sequence through the wire format.
    auto streamed = dyn::make_solver(kind, inst.ot, weng);
    streamed->solve(inst.net, dest, I(0));
    stream::BufferSource src(stream::encode_stream(seq));
    drain_updates(*streamed, src);
    ASSERT_TRUE(src.error().empty()) << inst.desc;
    ASSERT_EQ(streamed->net().version(), static_cast<std::uint64_t>(len))
        << inst.desc;

    // B: the same edits as one batch.
    auto batched = dyn::make_solver(kind, inst.ot, weng);
    batched->solve(inst.net, dest, I(0));
    batched->update(concat(seq));

    // C: a cold full solve of the final topology (dyn disabled).
    auto cold = dyn::make_solver(kind, inst.ot, weng);
    cold->solve(inst.net, dest, I(0));
    {
      ScopedToggles off(/*dyn_on=*/false, threads, simd_on);
      cold->update(concat(seq));
    }
    // A concatenation that composes to a net no-op takes the fast path (the
    // satellite regression below) even with dyn off; otherwise it must have
    // re-solved cold.
    if (cold->last_update().changed_arcs > 0) {
      ASSERT_TRUE(cold->last_update().cold) << inst.desc;
    }

    ASSERT_EQ(streamed->converged(), batched->converged()) << inst.desc;
    if (streamed->converged()) {
      expect_identical(streamed->routing(), batched->routing(),
                       inst.desc + " stream vs batch");
      expect_identical(streamed->routing(), cold->routing(),
                       inst.desc + " stream vs cold");
    }
  }
}

// The RibSolver side of the same contract, every column compared.
TEST(StreamEquivalence, RibConsumeEqualsBatchEqualsColdAcrossToggleCube) {
  constexpr int kSequences = 256;
  for (int trial = 0; trial < kSequences; ++trial) {
    Rng rng(par::mix_seed(0x51BE, static_cast<std::uint64_t>(trial)));
    EquivInstance inst = sat_plus_instance(rng);
    inst.desc += " trial " + std::to_string(trial);
    const int n = inst.net.num_nodes();

    const bool with_engine = (trial % 2 == 0);
    const int threads = (trial % 3 == 0) ? 4 : 1;
    const bool simd_on = (trial % 5 != 4);
    ScopedToggles toggles(/*dyn_on=*/true, threads, simd_on);
    const compile::WeightEngine eng(inst.ot);
    const compile::WeightEngine* weng = with_engine ? &eng : nullptr;

    std::vector<TopologyDelta> seq;
    const int len = 1 + static_cast<int>(rng.below(5));
    for (int i = 0; i < len; ++i) {
      seq.push_back(random_topo_delta(rng, inst));
    }

    rib::RibSolver streamed(inst.ot, weng);
    streamed.solve_all(inst.net, I(0));
    stream::MemorySource src(seq);
    ASSERT_EQ(drain_updates(streamed, src), static_cast<std::size_t>(len))
        << inst.desc;

    rib::RibSolver batched(inst.ot, weng);
    batched.solve_all(inst.net, I(0));
    batched.update(concat(seq));

    rib::RibSolver cold(inst.ot, weng);
    cold.solve_all(inst.net, I(0));
    {
      ScopedToggles off(/*dyn_on=*/false, threads, simd_on);
      cold.update(concat(seq));
    }

    for (int c = 0; c < n; ++c) {
      ASSERT_EQ(streamed.column_converged(c), batched.column_converged(c))
          << inst.desc << " col " << c;
      if (!streamed.column_converged(c)) continue;
      expect_identical(streamed.routing(c), batched.routing(c),
                       inst.desc + " stream vs batch col " +
                           std::to_string(c));
      expect_identical(streamed.routing(c), cold.routing(c),
                       inst.desc + " stream vs cold col " + std::to_string(c));
    }
  }
}

// One fixed sequence checked across the *entire* 2×2×2 toggle cube at once:
// all eight configurations must land on the same bytes.
TEST(StreamEquivalence, FullToggleCubeAgreesOnOneSequence) {
  Rng rng(0xC0BE);
  EquivInstance inst = sat_plus_instance(rng);
  std::vector<TopologyDelta> seq;
  for (int i = 0; i < 6; ++i) seq.push_back(random_topo_delta(rng, inst));
  const compile::WeightEngine eng(inst.ot);

  std::optional<Routing> reference;
  for (int engine_on = 0; engine_on < 2; ++engine_on) {
    for (int threads = 1; threads <= 4; threads += 3) {
      for (int simd_on = 0; simd_on < 2; ++simd_on) {
        ScopedToggles toggles(/*dyn_on=*/true, threads, simd_on != 0);
        rib::RibSolver rib(inst.ot, engine_on ? &eng : nullptr);
        rib.solve_all(inst.net, I(0));
        stream::MemorySource src(seq);
        drain_updates(rib, src);
        if (!reference.has_value()) {
          reference = rib.routing(0);
        } else {
          expect_identical(*reference, rib.routing(0),
                           "cube engine=" + std::to_string(engine_on) +
                               " threads=" + std::to_string(threads) +
                               " simd=" + std::to_string(simd_on));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fast-path regression: no-op batches do no invalidation work
// ---------------------------------------------------------------------------

TEST(StreamFastPath, EmptyDeltaIsNoOpOnDynSolver) {
  Rng rng(0xFA57);
  EquivInstance inst = sat_plus_instance(rng);
  auto s = dyn::make_solver(dyn::EngineKind::Bellman, inst.ot);
  s->solve(inst.net, 0, I(0));
  const Routing before = s->routing();
  const std::uint64_t v0 = s->net().version();

  s->update(TopologyDelta{});
  EXPECT_EQ(s->net().version(), v0 + 1);  // the version still bumps
  EXPECT_FALSE(s->last_update().cold);
  EXPECT_EQ(s->last_update().changed_arcs, 0);
  EXPECT_EQ(s->last_update().affected, 0);
  EXPECT_EQ(s->last_update().relaxations, 0u);
  expect_identical(before, s->routing(), "empty delta");
}

TEST(StreamFastPath, DeadArcOpsAreNoOpsOnDynSolver) {
  Rng rng(0xFA58);
  EquivInstance inst = sat_plus_instance(rng);
  auto s = dyn::make_solver(dyn::EngineKind::Bellman, inst.ot);
  s->solve(inst.net, 0, I(0));
  s->update(TopologyDelta{}.arc_down(1));
  const Routing before = s->routing();
  const std::uint64_t v0 = s->net().version();

  // Downing a down arc and relabeling a dead arc: routing-irrelevant — the
  // bug this pins was the dead-arc relabel entering changed_arcs and
  // triggering a full witness-invalidation pass.
  const Value new_label = I(inst.label_hi);
  TopologyDelta noop;
  noop.arc_down(1).relabel(1, new_label);
  s->update(noop);
  EXPECT_EQ(s->net().version(), v0 + 1);
  EXPECT_EQ(s->last_update().changed_arcs, 0);
  EXPECT_EQ(s->last_update().affected, 0);
  EXPECT_EQ(s->last_update().relaxations, 0u);
  expect_identical(before, s->routing(), "dead-arc batch");

  // The relabel was retained: reviving the arc must produce exactly the
  // routing of a batch that relabeled and revived in one step.
  s->update(TopologyDelta{}.arc_up(1));
  auto ref = dyn::make_solver(dyn::EngineKind::Bellman, inst.ot);
  ref->solve(inst.net, 0, I(0));
  ref->update(TopologyDelta{}.relabel(1, new_label));
  expect_identical(ref->routing(), s->routing(), "revived relabeled arc");
}

TEST(StreamFastPath, EmptyAndDeadArcDeltasAreNoOpsOnRib) {
  Rng rng(0xFA59);
  EquivInstance inst = sat_plus_instance(rng);
  rib::RibSolver rib(inst.ot);
  rib.solve_all(inst.net, I(0));
  rib.update(TopologyDelta{}.arc_down(0));
  std::vector<Routing> before;
  for (int c = 0; c < rib.num_columns(); ++c) before.push_back(rib.routing(c));
  const std::uint64_t v0 = rib.net().version();

  rib.update(TopologyDelta{});
  EXPECT_EQ(rib.net().version(), v0 + 1);
  EXPECT_EQ(rib.last_update().changed_arcs, 0);
  EXPECT_EQ(rib.last_update().relaxations, 0u);
  EXPECT_EQ(rib.last_update().affected_total(), 0);

  TopologyDelta noop;
  noop.arc_down(0).relabel(0, I(inst.label_hi));
  rib.update(noop);
  EXPECT_EQ(rib.net().version(), v0 + 2);
  EXPECT_EQ(rib.last_update().changed_arcs, 0);
  EXPECT_EQ(rib.last_update().relaxations, 0u);
  for (int c = 0; c < rib.num_columns(); ++c) {
    expect_identical(before[static_cast<std::size_t>(c)], rib.routing(c),
                     "rib no-op col " + std::to_string(c));
  }

  // Reviving the relabeled arc matches a fresh relabel-only table.
  rib.update(TopologyDelta{}.arc_up(0));
  rib::RibSolver ref(inst.ot);
  ref.solve_all(inst.net, I(0));
  ref.update(TopologyDelta{}.relabel(0, I(inst.label_hi)));
  for (int c = 0; c < rib.num_columns(); ++c) {
    expect_identical(ref.routing(c), rib.routing(c),
                     "rib revived col " + std::to_string(c));
  }
}

// ---------------------------------------------------------------------------
// Sim quiescent-point recording + SimDeltaSource replay
// ---------------------------------------------------------------------------

TEST(SimDeltaStream, RecordingChangesNoScheduleByte) {
  const Scenario sc = good_gadget_hops();
  SimOptions a;
  a.seed = 42;
  SimOptions b = a;
  b.record_quiescent = true;

  PathVectorSim sim_a(sc.alg, sc.net, sc.dest, sc.origin, a);
  sim_a.schedule_link_down(2.0, 0);
  sim_a.schedule_link_up(5.0, 0);
  const SimResult ra = sim_a.run();

  PathVectorSim sim_b(sc.alg, sc.net, sc.dest, sc.origin, b);
  sim_b.schedule_link_down(2.0, 0);
  sim_b.schedule_link_up(5.0, 0);
  const SimResult rb = sim_b.run();

  EXPECT_EQ(ra.events, rb.events);
  EXPECT_EQ(ra.rounds, rb.rounds);
  EXPECT_EQ(ra.finish_time, rb.finish_time);
  expect_identical(ra.routing, rb.routing, "recording A/B");
  EXPECT_TRUE(ra.quiescent.empty());   // off by default
  EXPECT_FALSE(rb.quiescent.empty());  // the faulted run has stable states
}

TEST(SimDeltaStream, ReplayLandsOnTheEndStateTopology) {
  Rng rng(0x5EED);
  const Scenario sc = gao_rexford_hierarchy(rng, 24, 12);
  SimOptions opts;
  opts.seed = 7;
  opts.record_quiescent = true;
  PathVectorSim sim(sc.alg, sc.net, sc.dest, sc.origin, opts);
  sim.schedule_link_down(1.5, 0);
  sim.schedule_link_down(2.5, 3);
  sim.schedule_link_up(6.0, 0);
  sim.schedule_node_down(3.0, sc.net.num_nodes() - 1);
  const SimResult res = sim.run();
  ASSERT_TRUE(res.converged);

  // Drive a warm solver through the quiescent-point stream; its final masks
  // must be exactly the run's surviving topology, and its routing must be
  // byte-identical to applying SimResult::delta as one batch.
  SimDeltaSource src(res);
  EXPECT_GE(src.deltas().size(), res.quiescent.size());
  auto streamed = dyn::make_solver(dyn::EngineKind::Bellman, sc.alg);
  streamed->solve(sc.net, sc.dest, sc.origin);
  drain_updates(*streamed, src);

  auto batched = dyn::make_solver(dyn::EngineKind::Bellman, sc.alg);
  batched->solve(sc.net, sc.dest, sc.origin);
  batched->update(res.delta);

  const dyn::DynNet& dn = streamed->net();
  for (int a = 0; a < sc.net.graph().num_arcs(); ++a) {
    EXPECT_EQ(dn.arc_alive(a), res.arc_alive[static_cast<std::size_t>(a)])
        << "arc " << a;
  }
  for (int v = 0; v < sc.net.num_nodes(); ++v) {
    EXPECT_EQ(dn.node_up(v), res.node_up[static_cast<std::size_t>(v)])
        << "node " << v;
  }
  expect_identical(streamed->routing(), batched->routing(),
                   "sim replay vs one-batch");

  // And the replay log survives the wire format.
  const std::vector<std::uint8_t> bytes =
      stream::encode_stream(src.deltas());
  auto rewired = dyn::make_solver(dyn::EngineKind::Bellman, sc.alg);
  rewired->solve(sc.net, sc.dest, sc.origin);
  stream::BufferSource wire_src(bytes);
  drain_updates(*rewired, wire_src);
  ASSERT_TRUE(wire_src.error().empty());
  expect_identical(rewired->routing(), streamed->routing(),
                   "sim replay through wire");
}

TEST(SimDeltaStream, OracleDuringRunPassesOnConvergentScenario) {
  Rng rng(0xC4A0);
  chaos::CampaignScenario sc;
  const Scenario base = gao_rexford_hierarchy(rng, 16, 8);
  sc.name = "gr-during-run";
  sc.alg = base.alg;
  sc.net = base.net;
  sc.dest = base.dest;
  sc.origin = base.origin;
  sc.sim.max_events = 200'000;
  sc.oracle_during_run = true;

  // Flap-style faults only (downs/ups, no loss windows): every quiescent
  // instant is a true stable state, so the during-run oracle must hold.
  const int arcs = sc.net.graph().num_arcs();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng prng(seed);
    chaos::FaultPlan plan;
    plan.seed = seed;
    const int nfaults = 1 + static_cast<int>(seed % 3);
    for (int i = 0; i < nfaults; ++i) {
      chaos::Fault f;
      f.kind = chaos::Fault::Kind::LinkFlap;
      f.arc = static_cast<int>(prng.below(static_cast<std::uint64_t>(arcs)));
      f.at = 4.0 + 3.0 * prng.unit();
      f.duration = 2.0 + 6.0 * prng.unit();
      plan.faults.push_back(f);
    }
    const chaos::RunVerdict v =
        chaos::run_one(sc, seed, plan, /*check_global=*/false);
    EXPECT_TRUE(v.pass) << "seed " << seed << ": " << v.detail;
  }
}

}  // namespace
}  // namespace mrt
