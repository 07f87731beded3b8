// Internal to the core library: the two count engines with the
// phase-adaptive dispatcher's switch monitor attached.  simulate_adaptive
// (adaptive_simulator.cpp) runs every engine segment through these;
// simulate_counts and simulate_collapsed are the same runs with no monitor.
// Not part of the public API: the monitor is driver state, not an option.

#ifndef POPPROTO_CORE_ADAPTIVE_SEGMENTS_H
#define POPPROTO_CORE_ADAPTIVE_SEGMENTS_H

#include "core/configuration.h"
#include "core/engine_monitor.h"
#include "core/simulator.h"
#include "core/tabulated_protocol.h"

namespace popproto::adaptive_detail {

/// simulate_counts, with `monitor` (may be null) polled by the kernel.
RunResult run_count_batch(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                          const RunOptions& options, EngineSwitchMonitor* monitor);

/// simulate_collapsed, with `monitor` (may be null) polled by the kernel.
RunResult run_collapsed(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                        const RunOptions& options, EngineSwitchMonitor* monitor);

}  // namespace popproto::adaptive_detail

#endif  // POPPROTO_CORE_ADAPTIVE_SEGMENTS_H
