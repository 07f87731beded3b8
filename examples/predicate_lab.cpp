// Predicate lab: type a Presburger predicate, get a sensor protocol.
//
// Usage:
//   predicate_lab                                  # demo predicate
//   predicate_lab "x0 - 19 x1 < 1" 950 50          # formula + symbol counts
//
// The formula is parsed, compiled with the Theorem 5 compiler, verified
// exhaustively on all populations of up to 5 agents with the exact analyzer,
// and then simulated once on the requested input under random pairing.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/stable_computation.h"
#include "core/batch_simulator.h"
#include "core/simulator.h"
#include "presburger/compiler.h"
#include "presburger/parser.h"

namespace {

using namespace popproto;

void for_each_counts(std::uint64_t total, std::size_t slots,
                     std::vector<std::uint64_t>& current, std::size_t index,
                     bool& all_ok, const TabulatedProtocol& protocol, const Formula& formula) {
    if (index + 1 == slots) {
        current[index] = total;
        const auto initial = CountConfiguration::from_input_counts(protocol, current);
        const bool expected =
            formula.evaluate(std::vector<std::int64_t>(current.begin(), current.end()));
        if (!stably_computes_bool(protocol, initial, expected)) all_ok = false;
        return;
    }
    for (std::uint64_t v = 0; v <= total; ++v) {
        current[index] = v;
        for_each_counts(total - v, slots, current, index + 1, all_ok, protocol, formula);
    }
}

}  // namespace

int main(int argc, char** argv) {
    const std::string text = argc > 1 ? argv[1] : "x0 - 19 x1 < 1";

    Formula formula = [&] {
        try {
            return parse_formula(text);
        } catch (const std::exception& error) {
            std::fprintf(stderr, "%s\n", error.what());
            std::exit(2);
        }
    }();
    std::printf("parsed    : %s\n", formula.to_string().c_str());

    const auto protocol = compile_formula(formula);
    std::printf("compiled  : %zu states over %zu input symbols (%zu atoms)\n",
                protocol->num_states(), protocol->num_input_symbols(), formula.num_atoms());

    // Exhaustive verification over every input of every population up to 5.
    bool all_ok = true;
    for (std::uint64_t n = 1; n <= 5; ++n) {
        std::vector<std::uint64_t> counts(protocol->num_input_symbols(), 0);
        for_each_counts(n, counts.size(), counts, 0, all_ok, *protocol, formula);
    }
    std::printf("verified  : populations <= 5 agents %s\n",
                all_ok ? "all stably compute the predicate" : "FAILED");

    // Input counts from the command line (default: a 1000-agent example).
    std::vector<std::uint64_t> counts(protocol->num_input_symbols(), 0);
    std::uint64_t population = 0;
    if (argc > 2) {
        for (int i = 2; i < argc && static_cast<std::size_t>(i - 2) < counts.size(); ++i)
            counts[i - 2] = std::strtoull(argv[i], nullptr, 10);
    } else {
        counts[0] = 950;
        if (counts.size() > 1) counts[1] = 50;
    }
    for (std::uint64_t c : counts) population += c;
    if (population < 2) {
        std::printf("population too small to simulate; done\n");
        return all_ok ? 0 : 1;
    }

    const auto initial = CountConfiguration::from_input_counts(*protocol, counts);
    RunOptions options;
    options.max_interactions = default_budget(population, 128.0);
    options.seed = 1;
    options.engine = SimulationEngine::kAgentArray;
    const RunResult result = run_simulation(*protocol, initial, options);
    const bool expected =
        formula.evaluate(std::vector<std::int64_t>(counts.begin(), counts.end()));
    std::printf("simulated : n=%llu -> %s after %llu interactions (ground truth: %s)\n",
                static_cast<unsigned long long>(population),
                result.consensus ? (*result.consensus == kOutputTrue ? "true" : "false")
                                 : "no consensus",
                static_cast<unsigned long long>(result.last_output_change),
                expected ? "true" : "false");
    return all_ok ? 0 : 1;
}
