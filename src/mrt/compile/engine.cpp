#include "mrt/compile/engine.hpp"

#include <cstdlib>
#include <string>

#include "mrt/obs/metrics.hpp"
#include "mrt/support/require.hpp"

namespace mrt {
namespace compile {

namespace {

bool compile_enabled_from_env() {
  const char* e = std::getenv("MRT_COMPILE");
  return e == nullptr || std::string(e) != "0";
}

}  // namespace

WeightEngine::WeightEngine(const OrderTransform& alg)
    : algebra_(CompiledAlgebra::compile(alg)),
      enabled_(compile_enabled_from_env()) {
  if (!obs::enabled()) return;
  obs::Registry& reg = obs::registry();
  if (algebra_.ok()) {
    reg.counter("compile.compiled").add(1);
  } else {
    reg.counter("compile.fallbacks").add(1);
    reg.counter(std::string("compile.fallback.") +
                fallback_name(algebra_.fallback()))
        .add(1);
  }
}

CompiledNet CompiledNet::make(const WeightEngine& eng,
                              const LabeledGraph& net) {
  CompiledNet cn;
  cn.alg_ = &eng.algebra();
  if (!eng.compiled()) return cn;
  const int narcs = net.graph().num_arcs();
  cn.labels_.reserve(static_cast<std::size_t>(narcs));
  bool all_ok = true;
  for (int id = 0; id < narcs; ++id) {
    cn.labels_.push_back(eng.algebra().compile_label(net.label(id)));
    all_ok = all_ok && cn.labels_.back().ok;
  }
  cn.ok_ = all_ok;
  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    if (all_ok) {
      reg.counter("compile.labels_compiled")
          .add(static_cast<std::uint64_t>(narcs));
    } else {
      reg.counter("compile.fallbacks").add(1);
      reg.counter("compile.fallback.bad_label").add(1);
    }
  }
  return cn;
}

void CompiledNet::relabel(int arc_id, const Value& label) {
  if (!ok_) return;
  CompiledLabel& cl = labels_[static_cast<std::size_t>(arc_id)];
  cl = alg_->compile_label(label);
  MRT_ASSERT(cl.ok);
  if (obs::enabled()) obs::registry().counter("compile.labels_recompiled").add(1);
}

}  // namespace compile
}  // namespace mrt
