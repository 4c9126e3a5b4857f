// Writes a Chrome trace-event file for one BAD-GADGET run — the canonical
// divergent path-vector instance (Griffin–Shepherd–Wilfong; not ND, so
// Theorem 5 permits endless oscillation). The run is journaled, and the
// drained journal is rendered by obs::write_chrome_trace. Open the output in
// chrome://tracing or https://ui.perfetto.dev: the "sim-time" process holds
// advert/withdraw sends and deliveries per arc, selection flips per node,
// and the queue-depth counter track.
#include <iostream>
#include <string>
#include <vector>

#include "mrt/obs/obs.hpp"
#include "mrt/sim/scenario.hpp"

int main(int argc, char** argv) {
  using namespace mrt;
  // Default next to the executable, not the caller's cwd — running from the
  // repo root must not litter the checkout.
  std::string path;
  if (argc > 1) {
    path = argv[1];
  } else {
    path = argv[0];
    const std::size_t slash = path.find_last_of('/');
    path = (slash == std::string::npos ? std::string()
                                       : path.substr(0, slash + 1)) +
           "trace_convergence.json";
  }

  obs::set_enabled(true);
  obs::set_journal_enabled(true);
  obs::journal().reset();

  Scenario sc = bad_gadget();
  SimOptions opts;
  opts.seed = 7;
  opts.max_events = 2000;  // enough oscillation to see the cycle structure
  opts.drop_top_routes = true;
  PathVectorSim sim(sc.alg, sc.net, sc.dest, sc.origin, opts);
  const SimResult res = sim.run();
  const std::vector<obs::JournalRecord> records = obs::journal().drain();

  std::cout << "BAD GADGET run: " << (res.converged ? "converged" : "diverged")
            << " after " << res.events << " deliveries ("
            << res.stats.messages_sent << " sent, "
            << res.stats.withdrawals_sent << " withdrawals, "
            << res.stats.selection_changes << " selection changes, queue "
            << "high-water " << res.stats.queue_high_water << ")\n";

  // A full ring overwrote the oldest records: the trace would silently
  // start mid-run.
  if (obs::journal().dropped() != 0) {
    std::cerr << "journal dropped " << obs::journal().dropped()
              << " records; raise obs::journal().set_capacity\n";
    return 1;
  }
  if (!obs::write_chrome_trace_file(path, records)) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << records.size() << " journal records to " << path
            << "\nload it in chrome://tracing or https://ui.perfetto.dev\n";
  return 0;
}
