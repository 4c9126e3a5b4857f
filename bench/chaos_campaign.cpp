// EXP-CHAOS — fault-injection campaign over the headline scenarios.
//
// Thousands of seeded (scenario × fault-plan) runs, each scored by the
// differential convergence oracles (stability, extension, reachability,
// global agreement). The verdict table on stdout is bit-identical for every
// MRT_THREADS value — scripts/bench_gates.py diffs a 1-thread run against a
// 4-thread run as the determinism gate.
#include "bench_util.hpp"
#include "mrt/chaos/campaign.hpp"
#include "mrt/core/bases.hpp"
#include "mrt/sim/scenario.hpp"

namespace mrt {
namespace {

using chaos::CampaignScenario;
using chaos::GlobalCheck;

std::vector<CampaignScenario> headline_scenarios() {
  std::vector<CampaignScenario> out;
  {
    Scenario sc = good_gadget_hops();
    CampaignScenario c;
    c.name = "good_gadget_hops";
    c.alg = sc.alg;
    c.net = sc.net;
    c.dest = sc.dest;
    c.origin = sc.origin;
    // Hop count's carrier is infinite, so the checker cannot certify M+ND
    // exhaustively — both hold by construction; opt the global oracle in.
    c.global = GlobalCheck::On;
    out.push_back(std::move(c));
  }
  {
    Rng rng(0x6A0);
    Scenario sc = gao_rexford_hierarchy(rng, 10, 4);
    CampaignScenario c;
    c.name = "gao_rexford_hierarchy";
    c.alg = sc.alg;
    c.net = sc.net;
    c.dest = sc.dest;
    c.origin = sc.origin;
    c.sim.drop_top_routes = true;  // ⊤ = invalid (not exportable)
    c.global = GlobalCheck::Auto;  // finite carrier: checker proves M + ND
    out.push_back(std::move(c));
  }
  {
    Rng rng(0x1C4A);
    Scenario sc = random_scenario(ot_chain_add(6, 1, 3), Value::integer(0),
                                  rng, 8, 6);
    CampaignScenario c;
    c.name = "random_increasing_chain";
    c.alg = sc.alg;
    c.net = sc.net;
    c.dest = sc.dest;
    c.origin = sc.origin;
    c.sim.drop_top_routes = true;  // the saturated top is "unreachable"
    c.global = GlobalCheck::Auto;
    out.push_back(std::move(c));
  }
  {
    Scenario sc = bad_gadget();
    CampaignScenario c;
    c.name = "bad_gadget";
    c.alg = sc.alg;
    c.net = sc.net;
    c.dest = sc.dest;
    c.origin = sc.origin;
    c.sim.drop_top_routes = true;
    c.sim.max_events = 4000;  // divergence is declared at the cap
    c.expect_convergence = false;
    c.min_divergent = 1;
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace
}  // namespace mrt

int main(int argc, char** argv) {
  using namespace mrt;
  bench::JsonReport report("chaos_campaign", argc, argv);
  bench::banner("EXP-CHAOS: fault-injection campaign, differential oracles");

  chaos::CampaignConfig cfg;
  cfg.seed = 0xCA05;
  cfg.runs_per_scenario = 250;  // × 4 scenarios ⇒ 1000 runs
  const chaos::CampaignReport rep = chaos::run_campaign(headline_scenarios(),
                                                        cfg);
  std::cout << rep.verdict_table();

  // Fault-free baseline at the same seeds: the gap between these quiescence
  // times and the faulted ones is the reconvergence cost of the fault load.
  std::vector<chaos::CampaignScenario> calm = headline_scenarios();
  for (auto& c : calm) c.faults.max_faults = 0;
  const chaos::CampaignReport base = chaos::run_campaign(calm, cfg);

  long runs = 0, diverged = 0, faults = 0;
  for (std::size_t i = 0; i < rep.scenarios.size(); ++i) {
    const auto& s = rep.scenarios[i];
    const auto& b = base.scenarios[i];
    runs += s.runs;
    diverged += s.diverged;
    faults += s.faults_injected;
    report.metric("oracle_failures." + s.name,
                  static_cast<double>(s.oracle_failures));
    report.metric("mean_convergence_time." + s.name,
                  s.converged > 0
                      ? s.total_finish_time / static_cast<double>(s.converged)
                      : 0.0);
    report.metric("mean_convergence_time_fault_free." + s.name,
                  b.converged > 0
                      ? b.total_finish_time / static_cast<double>(b.converged)
                      : 0.0);
    report.metric("mean_faults_per_run." + s.name,
                  static_cast<double>(s.faults_injected) /
                      static_cast<double>(s.runs > 0 ? s.runs : 1));
  }
  report.metric("runs", static_cast<double>(runs));
  report.metric("diverged", static_cast<double>(diverged));
  report.metric("faults_injected", static_cast<double>(faults));
  report.metric("all_pass", rep.all_pass() ? 1.0 : 0.0);
  return rep.all_pass() ? 0 : 1;
}
