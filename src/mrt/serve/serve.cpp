#include "mrt/serve/serve.hpp"

#include <utility>

#include "mrt/obs/obs.hpp"
#include "mrt/support/require.hpp"

namespace mrt::serve {
namespace {

// Registered at namespace scope so the serve.* names exist in the registry
// (and thus in write_json / OpenMetrics output) from the first Daemon on.
obs::Counter& deltas_counter() {
  static obs::Counter& c = obs::registry().counter("serve.deltas_consumed");
  return c;
}

obs::Counter& changes_counter() {
  static obs::Counter& c = obs::registry().counter("serve.route_changes");
  return c;
}

obs::Histogram& update_hist() {
  static obs::Histogram& h = obs::registry().histogram("serve.update_ns");
  return h;
}

}  // namespace

Daemon::Daemon(const OrderTransform& alg, const compile::WeightEngine* engine)
    : rib_(alg, engine) {
  // Touch the serve.* metrics so exporter presence does not depend on
  // whether any delta ever arrives.
  deltas_counter();
  changes_counter();
  update_hist();
}

void Daemon::start(const LabeledGraph& net, std::vector<int> dests,
                   const Value& origin) {
  rib_.solve(net, std::move(dests), origin);
  stats_ = ServeStats{};
  update_index_ = 0;
  started_ = true;
}

std::size_t Daemon::apply(const dyn::TopologyDelta& delta,
                          const ChangeSink& sink) {
  MRT_REQUIRE(started_);
  {
    obs::ScopedTimer timer(update_hist());
    rib_.update(delta);
  }
  ++stats_.deltas_consumed;
  if (rib_.last_update().cold) {
    ++stats_.cold_updates;
  } else {
    ++stats_.warm_updates;
  }
  if (obs::enabled()) deltas_counter().add(1);

  const std::vector<rib::RouteDiff>& diffs = rib_.last_changes();
  for (const rib::RouteDiff& d : diffs) {
    if (!d.has) ++stats_.withdrawals;
    if (sink) {
      RouteChange ev;
      ev.update_index = update_index_;
      ev.column = d.column;
      ev.dest = rib_.dests()[static_cast<std::size_t>(d.column)];
      ev.node = d.node;
      ev.had_route = d.had;
      ev.has_route = d.has;
      ev.next_arc = d.next_arc;
      sink(ev);
    }
  }
  const std::size_t changes = diffs.size();
  stats_.route_changes += changes;
  if (obs::enabled() && changes > 0) {
    changes_counter().add(static_cast<std::uint64_t>(changes));
  }
  ++update_index_;
  return changes;
}

std::size_t Daemon::drain(stream::DeltaStream& s, const ChangeSink& sink) {
  MRT_REQUIRE(started_);
  // A stream that failed in an earlier drain yields nothing and was
  // counted then.
  const bool failed_before = !s.error().empty();
  std::size_t n = 0;
  while (std::optional<dyn::TopologyDelta> d = s.next()) {
    apply(*d, sink);
    ++n;
  }
  if (!failed_before && !s.error().empty()) ++stats_.decode_errors;
  return n;
}

}  // namespace mrt::serve
