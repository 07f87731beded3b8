// The scenario front door: one named-spec entry point over every
// interaction model, shared by the CLI (`trace_run --model`) and the
// service daemon (SessionSpec::model).
//
// run_scenario builds the requested InteractionModel, wraps it in the
// shared PairStepper (engine tag ObservedEngine::kPairModel), and drives
// the run-loop kernel — so every scenario inherits observers, telemetry,
// silence/stability stopping, checkpoint/resume bit-identity, and
// service-daemon quantum slicing with no scenario-specific plumbing.

#ifndef POPPROTO_SCENARIOS_SCENARIO_SPEC_H
#define POPPROTO_SCENARIOS_SCENARIO_SPEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/configuration.h"
#include "core/simulator.h"
#include "core/tabulated_protocol.h"
#include "graphs/interaction_graph.h"

namespace popproto {

/// Which pairing disciplines run_scenario can build, with their parameters.
/// Defaults are chosen so that only `model` is mandatory.
struct ScenarioSpec {
    /// "round_robin", "sweep", "adversarial", "dynamic_graph", or
    /// "grid_mobility".
    std::string model;

    /// adversarial: per-step look-ahead for null interactions (0 disables
    /// probing).
    std::uint64_t probe = 16;

    /// dynamic_graph: named topologies cycled through, one per phase
    /// ("complete", "ring", "line", "star"); must be non-empty for this
    /// model.
    std::vector<std::string> phases;
    /// dynamic_graph: interactions per phase; 0 resolves to 4n.
    std::uint64_t phase_length = 0;

    /// grid_mobility: torus dimensions; 0 resolves to the smallest square
    /// torus with at least 2n cells.
    std::uint64_t torus_width = 0;
    std::uint64_t torus_height = 0;
    /// grid_mobility: Chebyshev contact range (0 = same cell only).
    std::uint64_t radius = 1;
};

/// The names run_scenario accepts, for CLI/service validation and help text.
const std::vector<std::string>& scenario_model_names();

/// Builds a named topology over `num_agents` agents ("complete", "ring",
/// "line", "star"); throws std::invalid_argument for unknown names.
InteractionGraph make_named_topology(const std::string& name, std::uint32_t num_agents);

/// Runs `protocol` from `initial` under the pairing model described by
/// `spec`.  Stopping rules are as in run_simulation; dynamic-graph runs
/// never test silence (restricted edge sets) and rely on output stability or
/// the budget, like simulate_on_graph.  Requires options.engine == kAuto and a
/// population of at least 2.  The sweep model's private shuffle stream is
/// seeded from options.seed (it never consumes the kernel stream, so the
/// two never interleave).
RunResult run_scenario(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                       const ScenarioSpec& spec, const RunOptions& options);

}  // namespace popproto

#endif  // POPPROTO_SCENARIOS_SCENARIO_SPEC_H
