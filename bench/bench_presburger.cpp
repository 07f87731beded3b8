// E9: the Theorem 5 compiler end to end, with the Theorem 8 O(k_psi n^2
// log n) convergence bound.
//
// Workloads: the paper's own examples - majority, parity, the "at least 5%
// fevered birds" predicate (20 x1 >= x0 + x1), and the Sect. 4.3 integer
// convention formula y1 - 2 y2 = 0 (mod 3) over its 5-token alphabet.

#include "bench_util.h"
#include "core/batch_simulator.h"
#include "core/simulator.h"
#include "presburger/compiler.h"

namespace {

using namespace popproto;
using namespace popproto::bench;

struct Workload {
    std::string name;
    std::unique_ptr<TabulatedProtocol> protocol;
    Formula formula;
    std::vector<std::uint64_t> (*counts)(std::uint64_t n);
};

std::vector<std::uint64_t> near_majority(std::uint64_t n) { return {n / 2, n - n / 2}; }
std::vector<std::uint64_t> all_ones(std::uint64_t n) { return {0, n}; }
std::vector<std::uint64_t> five_percent(std::uint64_t n) {
    const std::uint64_t fevered = n / 20 + 1;
    return {n - fevered, fevered};
}
std::vector<std::uint64_t> token_mix(std::uint64_t n) {
    // Tokens (0,0), (1,0), (-1,0), (0,1), (0,-1): mostly +1's on y1 plus a
    // few y2 increments.
    const std::uint64_t q = n / 5;
    return {n - 4 * q, q, q, q, q};
}

void run() {
    banner("E9: compiled Presburger predicates (Theorems 5 and 8)",
           "Compiled protocols must reach the correct consensus; convergence should\n"
           "scale as O(k_psi n^2 log n).  States column shows the compiled |Q|.");

    std::vector<Workload> workloads;
    {
        const Formula majority = Formula::threshold({1, -1}, 0);
        workloads.push_back({"majority x0<x1", compile_formula(majority), majority,
                             near_majority});
    }
    {
        const Formula parity = Formula::congruence({0, 1}, 0, 2);
        workloads.push_back({"parity of x1", compile_formula(parity), parity, all_ones});
    }
    {
        const Formula fever = Formula::at_least({-1, 19}, 0);
        workloads.push_back({"fever >= 5%", compile_formula(fever), fever, five_percent});
    }
    {
        const Formula phi = Formula::congruence({1, -2}, 0, 3);
        const std::vector<std::vector<std::int64_t>> tokens = {
            {0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}};
        workloads.push_back({"y1-2y2=0 mod 3", compile_integer_convention(phi, tokens),
                             phi.substitute_tokens(tokens), token_mix});
    }

    Table table({"workload", "states", "n", "verdict", "mean inter.", "/(n^2 ln n)"});
    const int trials = 12;
    for (const Workload& workload : workloads) {
        for (std::uint64_t n : {32ull, 64ull, 128ull, 256ull}) {
            const auto counts = workload.counts(n);
            const auto initial =
                CountConfiguration::from_input_counts(*workload.protocol, counts);
            const bool expected = workload.formula.evaluate(
                std::vector<std::int64_t>(counts.begin(), counts.end()));
            const Symbol want = expected ? kOutputTrue : kOutputFalse;

            std::vector<double> convergence;
            bool all_correct = true;
            for (int trial = 0; trial < trials; ++trial) {
                RunOptions options;
                options.max_interactions = default_budget(n, 128.0);
                options.seed = 5 * n + trial;
                options.engine = SimulationEngine::kAgentArray;
                const RunResult result = run_simulation(*workload.protocol, initial, options);
                convergence.push_back(static_cast<double>(result.last_output_change));
                if (!result.consensus || *result.consensus != want) all_correct = false;
            }
            const double scale = static_cast<double>(n) * static_cast<double>(n) *
                                 std::log(static_cast<double>(n));
            table.row({workload.name, fmt_u(workload.protocol->num_states()), fmt_u(n),
                       all_correct ? "correct" : "WRONG", fmt(mean(convergence), 0),
                       fmt(mean(convergence) / scale, 4)});
        }
    }
}

}  // namespace

int main() {
    run();
    return 0;
}
