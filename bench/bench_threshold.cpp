// E4: the threshold protocol converges in O(n^2 log n) interactions even
// with mixed-sign inputs (proof of Theorem 8).
//
// The delicate case in the paper's analysis is a leader "maxed out" at +-s
// that must digest counts of the opposite sign; the harmonic-sum argument
// still gives O(n^2 log n).  We measure majority (x0 < x1) on balanced and
// skewed inputs, plus a two-sided signed instance, and report the ratio to
// n^2 ln n.

#include "bench_util.h"
#include "core/batch_simulator.h"
#include "core/simulator.h"
#include "presburger/atom_protocols.h"

namespace {

using namespace popproto;
using namespace popproto::bench;

struct Workload {
    const char* name;
    std::vector<std::int64_t> coefficients;
    std::int64_t constant;
    // Given n, produce input symbol counts.
    std::vector<std::uint64_t> (*counts)(std::uint64_t n);
};

std::vector<std::uint64_t> balanced(std::uint64_t n) { return {n / 2 + 1, n - n / 2 - 1}; }
std::vector<std::uint64_t> skewed(std::uint64_t n) { return {n / 10, n - n / 10}; }
std::vector<std::uint64_t> signed_mix(std::uint64_t n) { return {n / 3, n - n / 3}; }

void run() {
    banner("E4: threshold protocol convergence (mixed signs)",
           "Theorem 8 proof: the threshold protocol needs O(n^2 log n) interactions\n"
           "even when positive and negative counts must cancel through the leader.");

    const std::vector<Workload> workloads = {
        {"majority balanced", {1, -1}, 0, balanced},
        {"majority skewed", {1, -1}, 0, skewed},
        {"2x0-3x1<1 mixed", {2, -3}, 1, signed_mix},
    };

    Table table({"workload", "n", "verdict", "mean inter.", "/(n^2 ln n)"});
    const int trials = 15;
    for (const Workload& workload : workloads) {
        for (std::uint64_t n : {16ull, 64ull, 128ull, 256ull, 512ull}) {
            const auto protocol =
                make_threshold_protocol(workload.coefficients, workload.constant);
            const auto counts = workload.counts(n);
            const auto initial = CountConfiguration::from_input_counts(*protocol, counts);
            std::int64_t sum = 0;
            for (std::size_t i = 0; i < counts.size(); ++i)
                sum += workload.coefficients[i] * static_cast<std::int64_t>(counts[i]);
            const Symbol want = sum < workload.constant ? kOutputTrue : kOutputFalse;

            std::vector<double> convergence;
            bool all_correct = true;
            for (int trial = 0; trial < trials; ++trial) {
                RunOptions options;
                options.max_interactions = default_budget(n, 128.0);
                options.seed = 13 * n + trial;
                options.engine = SimulationEngine::kAgentArray;
                const RunResult result = run_simulation(*protocol, initial, options);
                convergence.push_back(static_cast<double>(result.last_output_change));
                if (!result.consensus || *result.consensus != want) all_correct = false;
            }
            const double scale = static_cast<double>(n) * static_cast<double>(n) *
                                 std::log(static_cast<double>(n));
            table.row({workload.name, fmt_u(n), all_correct ? "correct" : "WRONG",
                       fmt(mean(convergence), 0), fmt(mean(convergence) / scale, 4)});
        }
    }
}

}  // namespace

int main() {
    run();
    return 0;
}
