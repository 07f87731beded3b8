// E3: the remainder (mod m) protocol converges in Theta(n^2 log n)
// interactions (Sect. 6 / Theorem 8).
//
// The paper's accounting: (n-1)^2 expected interactions to a unique leader
// plus Theta(n^2 log n) for the leader to meet every agent (coupon
// collector at a 2/n participation rate).  The measured / (n^2 ln n) ratio
// should approach a constant as n grows.

#include "bench_util.h"
#include "core/batch_simulator.h"
#include "core/simulator.h"
#include "presburger/atom_protocols.h"

namespace {

using namespace popproto;
using namespace popproto::bench;

void run() {
    banner("E3: remainder protocol convergence",
           "Theorem 8: Presburger predicates converge in O(n^2 log n) expected\n"
           "interactions; here sum x_i = 0 (mod m) for m in {2, 3, 5}.");

    Table table({"m", "n", "verdict", "mean inter.", "sd", "/(n^2 ln n)"});
    const int trials = 20;
    for (std::int64_t modulus : {2, 3, 5}) {
        for (std::uint64_t n : {16ull, 32ull, 64ull, 128ull, 256ull, 512ull}) {
            const auto protocol = make_remainder_protocol({1}, 0, modulus);
            const auto initial = CountConfiguration::from_input_counts(*protocol, {n});
            const bool expected = (static_cast<std::int64_t>(n) % modulus) == 0;

            std::vector<double> convergence;
            bool all_correct = true;
            for (int trial = 0; trial < trials; ++trial) {
                RunOptions options;
                options.max_interactions = default_budget(n);
                options.seed = 31 * n + 7 * modulus + trial;
                options.engine = SimulationEngine::kAgentArray;
                const RunResult result = run_simulation(*protocol, initial, options);
                convergence.push_back(static_cast<double>(result.last_output_change));
                const Symbol want = expected ? kOutputTrue : kOutputFalse;
                if (!result.consensus || *result.consensus != want) all_correct = false;
            }
            const double scale = static_cast<double>(n) * static_cast<double>(n) *
                                 std::log(static_cast<double>(n));
            table.row({fmt_u(static_cast<std::uint64_t>(modulus)), fmt_u(n),
                       all_correct ? "correct" : "WRONG", fmt(mean(convergence), 0),
                       fmt(stddev(convergence), 0), fmt(mean(convergence) / scale, 4)});
        }
    }
}

}  // namespace

int main() {
    run();
    return 0;
}
