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
  snapshot_shadow();
}

void Daemon::snapshot_shadow() {
  const int cols = rib_.num_columns();
  const int n = rib_.net().num_nodes();
  const std::size_t total =
      static_cast<std::size_t>(cols) * static_cast<std::size_t>(n);
  shadow_has_.resize(total);
  shadow_arc_.resize(total);
  shadow_weight_.resize(total);
  for (int c = 0; c < cols; ++c) {
    const Routing& r = rib_.routing(c);
    const std::size_t base =
        static_cast<std::size_t>(c) * static_cast<std::size_t>(n);
    for (int v = 0; v < n; ++v) {
      const std::size_t vi = static_cast<std::size_t>(v);
      shadow_has_[base + vi] = r.weight[vi].has_value() ? 1 : 0;
      shadow_arc_[base + vi] = r.next_arc[vi];
      shadow_weight_[base + vi] = r.weight[vi];
    }
  }
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

  std::size_t changes = 0;
  const int cols = rib_.num_columns();
  const int n = rib_.net().num_nodes();
  for (int c = 0; c < cols; ++c) {
    const Routing& r = rib_.routing(c);
    const std::size_t base =
        static_cast<std::size_t>(c) * static_cast<std::size_t>(n);
    for (int v = 0; v < n; ++v) {
      const std::size_t vi = static_cast<std::size_t>(v);
      const bool had = shadow_has_[base + vi] != 0;
      const bool has = r.weight[vi].has_value();
      const bool same =
          had == has &&
          (!has || (shadow_arc_[base + vi] == r.next_arc[vi] &&
                    *shadow_weight_[base + vi] == *r.weight[vi]));
      if (same) continue;
      ++changes;
      if (!has) ++stats_.withdrawals;
      if (sink) {
        RouteChange ev;
        ev.update_index = update_index_;
        ev.column = c;
        ev.dest = rib_.dests()[static_cast<std::size_t>(c)];
        ev.node = v;
        ev.had_route = had;
        ev.has_route = has;
        ev.next_arc = has ? r.next_arc[vi] : -1;
        sink(ev);
      }
      shadow_has_[base + vi] = has ? 1 : 0;
      shadow_arc_[base + vi] = r.next_arc[vi];
      shadow_weight_[base + vi] = r.weight[vi];
    }
  }
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
