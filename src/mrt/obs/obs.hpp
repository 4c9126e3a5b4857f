// Umbrella header for mrt::obs — the metrics / tracing / profiling layer.
// See docs/OBSERVABILITY.md for the instrumentation map and the export
// formats.
#pragma once

#include "mrt/obs/chrome_trace.hpp"
#include "mrt/obs/journal.hpp"
#include "mrt/obs/json.hpp"
#include "mrt/obs/metrics.hpp"

namespace mrt::obs {

/// Shorthand for registry().counter(name) etc.
inline Counter& counter(const std::string& name) {
  return registry().counter(name);
}
inline Gauge& gauge(const std::string& name) { return registry().gauge(name); }
inline Histogram& histogram(const std::string& name) {
  return registry().histogram(name);
}

}  // namespace mrt::obs
