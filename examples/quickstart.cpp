// Quickstart: the paper's opening scenario (Sect. 1).
//
// A flock of birds carries finite-state sensors; we want to know whether at
// least five birds have elevated temperatures.  Build the count-to-five
// protocol, scatter inputs over a population, and let uniform random
// pairing drive it to a stable consensus.

#include <cstdio>

#include "core/batch_simulator.h"
#include "core/simulator.h"
#include "protocols/counting.h"

int main() {
    using namespace popproto;

    const std::uint64_t flock_size = 1000;
    const std::uint64_t fevered = 7;  // ground truth: >= 5, so the answer is "yes"

    // The protocol of Sect. 3.1: states q_0..q_5, counters merge pairwise,
    // and reaching 5 triggers a permanent alert that spreads to everyone.
    const auto protocol = make_counting_protocol(5);

    // The "global start signal": every sensor takes one reading.
    const auto initial = CountConfiguration::from_input_counts(
        *protocol, {flock_size - fevered, fevered});

    RunOptions options;
    options.max_interactions = default_budget(flock_size);
    options.seed = 2004;  // PODC 2004
    options.engine = SimulationEngine::kAgentArray;
    const RunResult result = run_simulation(*protocol, initial, options);

    std::printf("flock of %llu birds, %llu fevered\n",
                static_cast<unsigned long long>(flock_size),
                static_cast<unsigned long long>(fevered));
    std::printf("interactions simulated : %llu\n",
                static_cast<unsigned long long>(result.interactions));
    std::printf("outputs last changed at: %llu\n",
                static_cast<unsigned long long>(result.last_output_change));
    if (result.consensus) {
        std::printf("consensus              : %s\n",
                    *result.consensus == kOutputTrue ? "at least 5 fevered birds"
                                                     : "fewer than 5 fevered birds");
    } else {
        std::printf("consensus              : not yet reached (raise the budget)\n");
    }
    return result.consensus && *result.consensus == kOutputTrue ? 0 : 1;
}
