// SimDeltaSource: replay a simulator run as a delta stream.
//
// A PathVectorSim run with SimOptions::record_quiescent produces a log of
// QuiescentPoints, each carrying the topology delta since the previous
// point. SimDeltaSource turns that log into a stream::DeltaStream: one
// next() per quiescent point, in run order, plus — when the run ended
// mid-flight (event cap) or changed topology after the last quiescent
// instant — one trailing correction delta so the composed stream always
// lands exactly on SimResult::delta's admin state. Applying each batch to a
// cold-bound Solver/RibSolver through update() (or draining the stream into
// a serve::Daemon) therefore walks it through every intermediate surviving
// topology the protocol stabilized on, instead of jumping straight to the
// end state.
#pragma once

#include <vector>

#include "mrt/sim/path_vector.hpp"
#include "mrt/stream/stream.hpp"

namespace mrt {

class SimDeltaSource final : public stream::DeltaStream {
 public:
  /// Extracts the delta sequence from `res` (copies; `res` may go away).
  explicit SimDeltaSource(const SimResult& res);

  std::optional<dyn::TopologyDelta> next() override;

  /// The full extracted sequence (quiescent-point deltas + any trailing
  /// correction), for tests and wire-format round-trips.
  const std::vector<dyn::TopologyDelta>& deltas() const { return deltas_; }

 private:
  std::vector<dyn::TopologyDelta> deltas_;
  std::size_t i_ = 0;
};

}  // namespace mrt
