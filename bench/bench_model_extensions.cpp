// E13 (extension): the Sect. 8 model variations, measured.
//
// (a) Group size ablation: strict majority via g-way cancellation for
//     g = 2, 3, 5 - larger groups cancel faster per interaction but each
//     interaction reaches g agents; the table shows the net effect.
// (b) Population-changing rules: annihilating majority vs the conventional
//     fixed-population Lemma 5 majority - annihilation shrinks the
//     population as it works, and its survivors encode the exact margin.

#include "bench_util.h"
#include "core/batch_simulator.h"
#include "core/simulator.h"
#include "extensions/birth_death.h"
#include "extensions/multiway.h"
#include "presburger/atom_protocols.h"

namespace {

using namespace popproto;
using namespace popproto::bench;

void group_size_ablation() {
    banner("E13a: group-size ablation (Sect. 8 'larger groups')",
           "Strict majority 45 vs 55 on n = 100: g-way cancellation for g = 2, 3, 5.\n"
           "Convergence = last output change; all rows must be correct.");

    Table table({"group size", "verdict", "mean conv.", "vs g=2"});
    const int trials = 15;
    double baseline = 0.0;
    for (std::size_t g : {2ull, 3ull, 5ull}) {
        const auto protocol = make_multiway_majority_protocol(g);
        CountConfiguration initial(protocol->num_states());
        initial.add(protocol->initial_state(0), 45);
        initial.add(protocol->initial_state(1), 55);

        std::vector<double> convergence;
        bool all_correct = true;
        for (int trial = 0; trial < trials; ++trial) {
            MultiwayRunOptions options;
            options.max_interactions = 50'000'000;
            options.stop_after_stable_outputs = 400'000;
            options.seed = 40 * g + trial;
            const MultiwayRunResult result = simulate_multiway(*protocol, initial, options);
            convergence.push_back(static_cast<double>(result.last_output_change));
            if (!result.consensus || *result.consensus != kOutputTrue) all_correct = false;
        }
        const double m = mean(convergence);
        if (g == 2) baseline = m;
        table.row({fmt_u(g), all_correct ? "correct" : "WRONG", fmt(m, 0),
                   fmt(m / baseline, 2)});
    }
}

void birth_death_ablation() {
    banner("E13b: population-changing rules (Sect. 8 'increase or decrease')",
           "Majority 45 vs 55 on n = 100: annihilating protocol (agents die in\n"
           "pairs) vs the fixed-population Lemma 5 threshold protocol.");

    Table table({"model", "verdict", "mean conv.", "final pop."});
    const int trials = 15;

    {
        const auto protocol = make_annihilating_majority_protocol();
        CountConfiguration initial(protocol->num_states());
        initial.add(0, 45);
        initial.add(1, 55);
        std::vector<double> convergence;
        double final_population = 0;
        bool all_correct = true;
        for (int trial = 0; trial < trials; ++trial) {
            BirthDeathRunOptions options;
            options.max_interactions = 10'000'000;
            options.seed = 900 + trial;
            const BirthDeathRunResult result =
                simulate_birth_death(*protocol, initial, options);
            convergence.push_back(static_cast<double>(result.last_output_change));
            final_population +=
                static_cast<double>(result.final_configuration.population_size());
            if (!result.consensus || *result.consensus != kOutputTrue) all_correct = false;
        }
        table.row({"annihilating", all_correct ? "correct" : "WRONG",
                   fmt(mean(convergence), 0), fmt(final_population / trials, 1)});
    }
    {
        const auto protocol = make_threshold_protocol({1, -1}, 0);
        const auto initial = CountConfiguration::from_input_counts(*protocol, {45, 55});
        std::vector<double> convergence;
        bool all_correct = true;
        for (int trial = 0; trial < trials; ++trial) {
            RunOptions options;
            options.max_interactions = default_budget(100, 128.0);
            options.seed = 900 + trial;
            options.engine = SimulationEngine::kAgentArray;
            const RunResult result = run_simulation(*protocol, initial, options);
            convergence.push_back(static_cast<double>(result.last_output_change));
            if (!result.consensus || *result.consensus != kOutputTrue) all_correct = false;
        }
        table.row({"fixed (Lemma 5)", all_correct ? "correct" : "WRONG",
                   fmt(mean(convergence), 0), fmt(100.0, 1)});
    }
}

}  // namespace

int main() {
    group_size_ablation();
    birth_death_ablation();
    return 0;
}
