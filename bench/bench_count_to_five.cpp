// E1: the flock-of-birds count-to-five protocol (Sect. 1, 3.1-3.2).
//
// Claim reproduced: the protocol stably computes "at least 5 ones" on every
// population, and under uniform random pairing converges within
// O(n^2 log n) interactions (token coalescence is a coupon-collector-style
// process; the alert epidemic is Theta(n log n) meetings of a specific pair
// class).  We report mean convergence interactions and their ratio to
// n^2 ln n, which should stay bounded as n grows.

#include <cinttypes>

#include "bench_util.h"
#include "core/batch_simulator.h"
#include "core/simulator.h"
#include "protocols/counting.h"

namespace {

using namespace popproto;
using namespace popproto::bench;

void run() {
    banner("E1: count-to-five (flock of birds)",
           "Convergence of the Sect. 1 protocol under uniform random pairing; the\n"
           "measured interactions / (n^2 ln n) column should stay roughly constant.");

    Table table({"n", "ones", "verdict", "mean inter.", "sd", "/(n^2 ln n)"});
    const int trials = 25;
    for (std::uint64_t n : {16ull, 32ull, 64ull, 128ull, 256ull, 512ull}) {
        for (std::uint64_t ones : {std::uint64_t{3}, std::uint64_t{5}, n / 2}) {
            if (ones > n) continue;
            const auto protocol = make_counting_protocol(5);
            const auto initial =
                CountConfiguration::from_input_counts(*protocol, {n - ones, ones});
            std::vector<double> convergence;
            bool all_correct = true;
            for (int trial = 0; trial < trials; ++trial) {
                RunOptions options;
                options.max_interactions = default_budget(n);
                options.seed = 17 * n + 101 * ones + trial;
                options.engine = SimulationEngine::kAgentArray;
                const RunResult result = run_simulation(*protocol, initial, options);
                convergence.push_back(static_cast<double>(result.last_output_change));
                const Symbol expected = ones >= 5 ? kOutputTrue : kOutputFalse;
                if (!result.consensus || *result.consensus != expected) all_correct = false;
            }
            const double scale =
                static_cast<double>(n) * static_cast<double>(n) * std::log(static_cast<double>(n));
            table.row({fmt_u(n), fmt_u(ones), all_correct ? "correct" : "WRONG",
                       fmt(mean(convergence), 0), fmt(stddev(convergence), 0),
                       fmt(mean(convergence) / scale, 4)});
        }
    }
}

}  // namespace

int main() {
    run();
    return 0;
}
