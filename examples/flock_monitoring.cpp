// Flock monitoring: the Sect. 4.2 percentage question.
//
// "Is at least 5% of the flock fevered?" is 20 x1 >= x0 + x1, a Presburger
// predicate.  We compile it with the Theorem 5 compiler, verify it *exactly*
// on a small flock with the Theorem 6 reachability analyzer, and then run it
// on a large flock under random scheduling.

#include <cstdio>

#include "analysis/stable_computation.h"
#include "core/batch_simulator.h"
#include "core/simulator.h"
#include "presburger/compiler.h"

int main() {
    using namespace popproto;

    // 20 x1 >= x0 + x1  <=>  19 x1 - x0 >= 0.
    const Formula fever_share = Formula::at_least({-1, 19}, 0);
    const auto protocol = compile_formula(fever_share);
    std::printf("compiled '%s' into a protocol with %zu states\n",
                fever_share.to_string().c_str(), protocol->num_states());

    // Exact verification on every flock of up to 6 birds: every fair
    // schedule of every input converges to the correct answer.
    bool verified = true;
    for (std::uint64_t flock = 1; flock <= 6 && verified; ++flock) {
        for (std::uint64_t sick = 0; sick <= flock; ++sick) {
            const auto initial =
                CountConfiguration::from_input_counts(*protocol, {flock - sick, sick});
            const bool expected = 20 * sick >= flock;
            if (!stably_computes_bool(*protocol, initial, expected)) verified = false;
        }
    }
    std::printf("exact verification (all flocks <= 6 birds): %s\n",
                verified ? "every fair execution converges correctly" : "FAILED");

    // Field deployment: a 2000-bird flock just below and just above 5%.
    for (const std::uint64_t sick : {99ull, 100ull}) {
        const std::uint64_t flock = 2000;
        const auto initial =
            CountConfiguration::from_input_counts(*protocol, {flock - sick, sick});
        RunOptions options;
        options.max_interactions = default_budget(flock, 128.0);
        options.seed = sick;
        options.engine = SimulationEngine::kAgentArray;
        const RunResult result = run_simulation(*protocol, initial, options);
        std::printf("flock=%llu sick=%llu -> %s after %llu interactions\n",
                    static_cast<unsigned long long>(flock),
                    static_cast<unsigned long long>(sick),
                    result.consensus
                        ? (*result.consensus == kOutputTrue ? "ALERT (>= 5%)" : "ok (< 5%)")
                        : "no consensus",
                    static_cast<unsigned long long>(result.last_output_change));
    }
    return verified ? 0 : 1;
}
