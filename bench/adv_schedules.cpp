// EXP-ADV — certificate validity under adversarial schedules, and the
// scheduler seam's overhead.
//
// Sweep: (algebra × random topology × schedule class × seed) certificate
// runs through mrt::adv::certify. A certificate is VALID when it matches the
// algebra's theory: an exhaustively-increasing algebra must land
// WithinBound (the Daggitt–Griffin n² activation-round ceiling), anything
// else must honestly report Converged or Diverged with no bound claim.
// BoundViolated anywhere is a theorem falsification and fails the bench.
//
// Gates (scripts/bench_gates.py):
//   adv.cert_validity       == 1.0   every certificate matches theory
//   adv.bound_violations    == 0     no falsification
//   adv.overhead_per_event  <= 1.25  adversarial scheduling costs at most
//                                    25% more wall clock per delivered event
//                                    than the default jittered FIFO
#include <chrono>
#include <memory>

#include "bench_util.hpp"
#include "mrt/adv/adv.hpp"
#include "mrt/graph/generators.hpp"
#include "mrt/routing/labeled_graph.hpp"
#include "mrt/sim/scenario.hpp"

namespace mrt {
namespace {

struct AlgebraCase {
  std::string name;
  OrderTransform alg;
  ConvergenceProfile profile;
  bool increasing = false;
};

std::vector<AlgebraCase> algebra_pool() {
  std::vector<AlgebraCase> out;
  for (auto& [name, alg] :
       std::vector<std::pair<std::string, OrderTransform>>{
           {"chain_add(6,1,3)", ot_chain_add(6, 1, 3)},
           {"chain_add(9,1,2)", ot_chain_add(9, 1, 2)},
           {"gao_rexford", gao_rexford_algebra()},
           {"gadget", gadget_algebra()}}) {
    AlgebraCase c;
    c.name = name;
    c.profile = convergence_profile(alg);
    c.increasing = c.profile.increasing == Tri::True && c.profile.exhaustive;
    c.alg = std::move(alg);
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<adv::ScheduleSpec> schedule_pool(std::uint64_t seed) {
  std::vector<adv::ScheduleSpec> out;
  out.push_back({});  // the default jittered FIFO
  for (adv::ScheduleSpec& s : adv::builtin_adversaries(seed))
    out.push_back(std::move(s));
  return out;
}

// Per-(algebra × schedule) cell of the validity census.
struct Cell {
  long runs = 0;
  long within_bound = 0;
  long converged_na = 0;  // converged, bound not applicable
  long diverged = 0;
  long bound_violated = 0;
  long invalid = 0;  // certificate contradicted the algebra's theory
  long max_rounds = 0;
  long stale = 0;

  void merge(const Cell& o) {
    runs += o.runs;
    within_bound += o.within_bound;
    converged_na += o.converged_na;
    diverged += o.diverged;
    bound_violated += o.bound_violated;
    invalid += o.invalid;
    max_rounds = std::max(max_rounds, o.max_rounds);
    stale += o.stale;
  }
};

struct Acc {
  // Indexed [algebra][schedule]; sized lazily on first tally.
  std::vector<std::vector<Cell>> cells;

  Cell& at(std::size_t a, std::size_t s, std::size_t na, std::size_t ns) {
    if (cells.empty()) cells.assign(na, std::vector<Cell>(ns));
    return cells[a][s];
  }
  void merge(const Acc& o) {
    if (o.cells.empty()) return;
    if (cells.empty()) {
      cells = o.cells;
      return;
    }
    for (std::size_t a = 0; a < cells.size(); ++a)
      for (std::size_t s = 0; s < cells[a].size(); ++s)
        cells[a][s].merge(o.cells[a][s]);
  }
};

// Wall-clock of one sim run under `spec` (certificate construction and
// algebra checking excluded — this times the seam itself).
double timed_run(const OrderTransform& alg, const LabeledGraph& net, int dest,
                 const Value& origin, const adv::ScheduleSpec& spec,
                 const SimOptions& opts, long* events) {
  const std::unique_ptr<Scheduler> sched = adv::make_scheduler(spec);
  PathVectorSim sim(alg, net, dest, origin, opts);
  sim.set_scheduler(sched.get());
  const auto t0 = std::chrono::steady_clock::now();
  const SimResult res = sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  *events += res.events;
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace
}  // namespace mrt

int main(int argc, char** argv) {
  using namespace mrt;
  bench::JsonReport report("adv_schedules", argc, argv);
  bench::banner("EXP-ADV: convergence certificates under schedule adversaries");

  const std::vector<AlgebraCase> algs = algebra_pool();
  const std::vector<adv::ScheduleSpec> scheds = schedule_pool(0x5EED);
  const int kRuns = 400;  // triples: 4 algebras × 5 schedules × 20 seeds

  const Acc acc = bench::parallel_sweep<Acc>(0xADBE7C, kRuns, [&](Rng& rng,
                                                                  Acc& a) {
    const std::size_t ai = rng.below(algs.size());
    const std::size_t si = rng.below(scheds.size());
    const AlgebraCase& ac = algs[ai];

    const int nodes = 4 + static_cast<int>(rng.below(6));
    const int extra = 2 + static_cast<int>(rng.below(6));
    const LabeledGraph net =
        label_randomly(ac.alg, random_connected(rng, nodes, extra), rng);
    const int dest = static_cast<int>(rng.below(static_cast<std::uint64_t>(nodes)));

    adv::ScheduleSpec spec = scheds[si];
    spec.seed = rng.next();
    SimOptions opts;
    opts.seed = rng.next();
    opts.max_events = 20'000;

    const adv::ConvergenceCertificate cert = adv::certify(
        ac.alg, net, dest, Value::integer(0), spec, opts, &ac.profile);

    Cell& cell = a.at(ai, si, algs.size(), scheds.size());
    ++cell.runs;
    cell.max_rounds = std::max(cell.max_rounds, cert.rounds);
    cell.stale += cert.stale_discarded;
    switch (cert.verdict) {
      case adv::Verdict::WithinBound: ++cell.within_bound; break;
      case adv::Verdict::BoundViolated: ++cell.bound_violated; break;
      case adv::Verdict::Converged: ++cell.converged_na; break;
      case adv::Verdict::Diverged: ++cell.diverged; break;
    }
    const bool valid =
        ac.increasing ? cert.verdict == adv::Verdict::WithinBound
                      : (cert.verdict == adv::Verdict::Converged ||
                         cert.verdict == adv::Verdict::Diverged);
    if (!valid) ++cell.invalid;
  });

  Table table({"algebra", "schedule", "runs", "within_bound", "converged",
               "diverged", "VIOLATED", "INVALID", "max_rounds", "stale"});
  long runs = 0, violations = 0, invalid = 0;
  for (std::size_t a = 0; a < algs.size(); ++a) {
    for (std::size_t s = 0; s < scheds.size(); ++s) {
      const Cell& c = acc.cells[a][s];
      runs += c.runs;
      violations += c.bound_violated;
      invalid += c.invalid;
      table.add_row({algs[a].name, to_string(scheds[s].kind),
                     std::to_string(c.runs), std::to_string(c.within_bound),
                     std::to_string(c.converged_na), std::to_string(c.diverged),
                     std::to_string(c.bound_violated), std::to_string(c.invalid),
                     std::to_string(c.max_rounds), std::to_string(c.stale)});
    }
  }
  std::cout << table;

  // Seam overhead: the same (topology, seed) workload once per schedule
  // class, per-delivered-event normalized (adversaries change event counts,
  // so raw wall clock is not comparable).
  Rng orng(0x0EAD);
  const LabeledGraph onet = label_randomly(
      ot_chain_add(6, 1, 3), random_connected(orng, 24, 20), orng);
  double fifo_wall = 0.0, adv_wall = 0.0;
  long fifo_events = 0, adv_events = 0;
  const adv::ScheduleSpec fifo_spec;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SimOptions opts;
    opts.seed = seed;
    fifo_wall += timed_run(ot_chain_add(6, 1, 3), onet, 0, Value::integer(0),
                           fifo_spec, opts, &fifo_events);
    for (const adv::ScheduleSpec& s : adv::builtin_adversaries(seed)) {
      adv_wall += timed_run(ot_chain_add(6, 1, 3), onet, 0, Value::integer(0),
                            s, opts, &adv_events);
    }
  }
  const double fifo_per_event = fifo_wall / static_cast<double>(fifo_events);
  const double adv_per_event = adv_wall / static_cast<double>(adv_events);
  const double overhead = adv_per_event / fifo_per_event;
  std::cout << "\nseam overhead: fifo " << fifo_events << " events in "
            << fifo_wall << "s, adversaries " << adv_events << " events in "
            << adv_wall << "s -> " << overhead << "x per event\n";

  const double validity =
      runs > 0 ? 1.0 - static_cast<double>(invalid) / static_cast<double>(runs)
               : 0.0;
  report.metric("adv.runs", static_cast<double>(runs));
  report.metric("adv.cert_validity", validity);
  report.metric("adv.bound_violations", static_cast<double>(violations));
  report.metric("adv.overhead_per_event", overhead);
  report.metric("adv.fifo_events", static_cast<double>(fifo_events));
  report.metric("adv.adv_events", static_cast<double>(adv_events));
  return violations == 0 && invalid == 0 ? 0 : 1;
}
