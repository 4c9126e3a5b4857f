// The routing daemon end to end: generate a deterministic replay log of
// topology deltas for a Gao–Rexford hierarchy, round-trip it through the
// framed wire format on disk, then drain it into a warm serve::Daemon and
// verify the result three ways:
//
//   stream   — the daemon's table after draining the file, delta by delta
//   batch    — a fresh RibSolver applying all ops as one TopologyDelta
//   cold     — the same, with dyn disabled (full re-solve of the end state)
//
// All three must agree byte-for-byte on every destination column — the
// stream≡batch≡cold contract from docs/SERVE.md, demonstrated on the same
// path a production deployment would run (file → FileSource → drain, on
// the compiled flat kernels of a compile::WeightEngine).
//
// Usage: mrt_serve [deltas] [replay-path]
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "mrt/compile/engine.hpp"
#include "mrt/dyn/solver.hpp"
#include "mrt/rib/rib.hpp"
#include "mrt/serve/serve.hpp"
#include "mrt/sim/scenario.hpp"
#include "mrt/stream/stream.hpp"
#include "mrt/stream/wire.hpp"
#include "mrt/support/rng.hpp"

int main(int argc, char** argv) {
  using namespace mrt;
  const int n_deltas = argc > 1 ? std::atoi(argv[1]) : 400;
  // /tmp, not the caller's cwd — running from the repo root must not litter
  // the checkout.
  const std::string path =
      argc > 2 ? argv[2] : "/tmp/mrt_serve_replay.bin";

  Rng rng(2026);
  const Scenario sc = gao_rexford_hierarchy(rng, 64, 48);
  const int arcs = sc.net.graph().num_arcs();
  std::vector<int> dests;
  for (int v = 0; v < sc.net.num_nodes(); v += 4) dests.push_back(v);

  // A deterministic churn log: mostly single-arc flaps (each down eventually
  // paired with an up), an occasional node crash/restart.
  std::vector<dyn::TopologyDelta> log;
  std::vector<int> downed;
  for (int i = 0; i < n_deltas; ++i) {
    dyn::TopologyDelta d;
    const std::uint64_t roll = rng.below(10);
    if (roll < 4 || downed.empty()) {
      const int a = static_cast<int>(rng.below(static_cast<std::uint64_t>(arcs)));
      d.arc_down(a);
      downed.push_back(a);
    } else if (roll < 8) {
      const std::size_t j = static_cast<std::size_t>(rng.below(downed.size()));
      d.arc_up(downed[j]);
      downed.erase(downed.begin() + static_cast<std::ptrdiff_t>(j));
    } else if (roll == 8) {
      d.node_down(static_cast<int>(
          1 + rng.below(static_cast<std::uint64_t>(sc.net.num_nodes() - 1))));
    } else {
      d.node_up(static_cast<int>(
          1 + rng.below(static_cast<std::uint64_t>(sc.net.num_nodes() - 1))));
    }
    log.push_back(std::move(d));
  }

  // Wire round trip: the bytes on disk must decode to the exact log and
  // re-encode to the exact bytes.
  if (!stream::write_delta_file(path, log)) {
    std::cerr << "cannot write replay log " << path << "\n";
    return 1;
  }
  const auto reread = stream::read_delta_file(path);
  if (!reread.ok()) {
    std::cerr << "replay log rejected: " << reread.error().to_string() << "\n";
    return 1;
  }
  const std::vector<std::uint8_t> original = stream::encode_stream(log);
  if (stream::encode_stream(*reread) != original) {
    std::cerr << "wire round-trip is not byte-identical\n";
    return 1;
  }

  // Drain the file into a warm daemon on the compiled flat kernels, counting
  // route-change events. The batch and cold references share the engine.
  const compile::WeightEngine eng(sc.alg);
  serve::Daemon daemon(sc.alg, &eng);
  daemon.start(sc.net, dests, sc.origin);
  stream::FileSource src(path);
  std::size_t events = 0;
  const std::size_t batches =
      daemon.drain(src, [&events](const serve::RouteChange&) { ++events; });
  if (!src.error().empty()) {
    std::cerr << "drain failed: " << src.error() << "\n";
    return 1;
  }

  // Three-way verification against batch and cold references.
  dyn::TopologyDelta all;
  for (const dyn::TopologyDelta& d : log) {
    all.ops.insert(all.ops.end(), d.ops.begin(), d.ops.end());
  }
  rib::RibSolver batch(sc.alg, &eng);
  batch.solve(sc.net, dests, sc.origin);
  batch.update(all);

  rib::RibSolver cold(sc.alg, &eng);
  cold.solve(sc.net, dests, sc.origin);
  const bool dyn_was = dyn::enabled();
  dyn::set_enabled(false);
  cold.update(all);
  dyn::set_enabled(dyn_was);

  std::size_t mismatches = 0;
  for (int c = 0; c < batch.num_columns(); ++c) {
    const Routing& s = daemon.rib().routing(c);
    const Routing& b = batch.routing(c);
    const Routing& f = cold.routing(c);
    for (int v = 0; v < sc.net.num_nodes(); ++v) {
      const std::size_t vi = static_cast<std::size_t>(v);
      const bool sb = s.weight[vi] == b.weight[vi] &&
                      s.next_arc[vi] == b.next_arc[vi];
      const bool sf = s.weight[vi] == f.weight[vi] &&
                      s.next_arc[vi] == f.next_arc[vi];
      if (!sb || !sf) ++mismatches;
    }
  }

  const serve::ServeStats& st = daemon.stats();
  std::cout << "mrt_serve: " << sc.net.num_nodes() << " nodes, " << arcs
            << " arcs, " << dests.size() << " destination columns\n"
            << "  replay log   " << batches << " delta batches ("
            << original.size() << " bytes on the wire), round-trip "
            << "byte-identical\n"
            << "  daemon drain " << st.deltas_consumed << " deltas, "
            << st.warm_updates << " warm / " << st.cold_updates << " cold, "
            << st.route_changes << " route changes (" << st.withdrawals
            << " withdrawals, " << events << " events sunk)\n"
            << "  verification stream vs batch vs cold: "
            << (mismatches == 0 ? "byte-identical" :
                std::to_string(mismatches) + " MISMATCHED route entries")
            << "\n";

  std::remove(path.c_str());
  return mismatches == 0 ? 0 : 1;
}
