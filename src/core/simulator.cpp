#include "core/simulator.h"

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/engine_runners.h"
#include "core/interaction_model.h"
#include "core/require.h"
#include "core/run_loop.h"

namespace popproto {

namespace {

constexpr std::pair<const char*, SimulationEngine> kEngineNames[] = {
    {"auto", SimulationEngine::kAuto},
    {"agent", SimulationEngine::kAgentArray},
    {"batch", SimulationEngine::kCountBatch},
    {"collapsed", SimulationEngine::kCollapsedBatch},
    {"adaptive", SimulationEngine::kAdaptive},
};

constexpr std::pair<const char*, StopReason> kStopReasonNames[] = {
    {"silent", StopReason::kSilent},
    {"stable_outputs", StopReason::kStableOutputs},
    {"budget", StopReason::kBudget},
    {"paused", StopReason::kPaused},
};

}  // namespace

SimulationEngine parse_engine_name(const std::string& name) {
    for (const auto& [known, engine] : kEngineNames)
        if (name == known) return engine;
    throw std::invalid_argument("unknown engine \"" + name +
                                "\" (auto|agent|batch|collapsed|adaptive)");
}

const char* stop_reason_name(StopReason reason) {
    for (const auto& [name, known] : kStopReasonNames)
        if (reason == known) return name;
    return "unknown";
}

bool stop_reason_from_name(const std::string& name, StopReason& reason) {
    for (const auto& [known, value] : kStopReasonNames) {
        if (name == known) {
            reason = value;
            return true;
        }
    }
    return false;
}

RunResult engine_detail::run_agent_array(const TabulatedProtocol& protocol,
                                         const CountConfiguration& initial,
                                         const RunOptions& options) {
    require(initial.num_states() == protocol.num_states(),
            "agent_array: configuration does not match protocol");
    require(initial.population_size() >= 2, "agent_array: need at least two agents");

    PairStepper<UniformPairModel, ObservedEngine::kAgentArray> stepper(
        protocol, AgentConfiguration::from_counts(initial).states(), UniformPairModel{},
        "agent_array");
    return run_loop(stepper, protocol, options, "agent_array");
}

RunResult simulate_weighted(const TabulatedProtocol& protocol,
                            const AgentConfiguration& initial,
                            const std::vector<double>& weights, const RunOptions& options) {
    const std::size_t n = initial.size();
    require(n >= 2, "simulate_weighted: need at least two agents");
    require(weights.size() == n, "simulate_weighted: one weight per agent required");
    require(options.engine == SimulationEngine::kAuto,
            "simulate_weighted: options.engine must be kAuto (it selects a complete-graph "
            "engine of run_simulation)");
    for (const double w : weights)
        require(w > 0.0 && std::isfinite(w), "simulate_weighted: weights must be positive");

    PairStepper<WeightedPairModel, ObservedEngine::kWeighted> stepper(
        protocol, initial.states(), WeightedPairModel(weights), "simulate_weighted");
    return run_loop(stepper, protocol, options, "simulate_weighted");
}

}  // namespace popproto
