// Internal to the core library: the four complete-graph engines behind
// run_simulation (batch_simulator.h), the one public door to them.
// run_simulation switches on RunOptions::engine to reach these runners; the
// phase-adaptive dispatcher (run_adaptive) runs each of its engine segments
// through run_count_batch / run_collapsed with its switch monitor attached,
// while run_simulation passes none.  Not part of the public API: the monitor
// is driver state, not an option.

#ifndef POPPROTO_CORE_ENGINE_RUNNERS_H
#define POPPROTO_CORE_ENGINE_RUNNERS_H

#include "core/configuration.h"
#include "core/engine_monitor.h"
#include "core/simulator.h"
#include "core/tabulated_protocol.h"

namespace popproto::engine_detail {

/// The reference engine: an expanded agent array, one uniform ordered pair
/// per interaction (simulator.cpp).
RunResult run_agent_array(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                          const RunOptions& options);

/// The count-batch engine (batch_simulator.cpp), with `monitor` (may be
/// null) polled by the kernel.
RunResult run_count_batch(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                          const RunOptions& options, EngineSwitchMonitor* monitor);

/// The collapsed super-step engine (collapsed_simulator.cpp), with
/// `monitor` (may be null) polled by the kernel.
RunResult run_collapsed(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                        const RunOptions& options, EngineSwitchMonitor* monitor);

/// The phase-adaptive dispatcher (adaptive_simulator.cpp): one run as a
/// chain of count-batch / collapsed segments.  RunResult::engine reports
/// kAdaptive; emitted checkpoints carry the concrete segment engine plus
/// the monitor's `adaptive` section.
RunResult run_adaptive(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                       const RunOptions& options);

}  // namespace popproto::engine_detail

#endif  // POPPROTO_CORE_ENGINE_RUNNERS_H
