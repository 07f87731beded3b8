// E12 (extension): one-way communication (Sect. 8).
//
// The paper notes that restricting delta to change only the responder
// "appears to restrict the class of stably computable predicates severely",
// while threshold-k remains computable.  We compare the one-way level
// protocol against the standard two-way counting protocol: both must be
// correct; the table quantifies the convergence cost of giving up two-way
// exchange (the one-way protocol needs Theta(k) "ladder" meetings of
// equal-level agents instead of one token coalescence pass).

#include "bench_util.h"
#include "core/batch_simulator.h"
#include "core/simulator.h"
#include "protocols/counting.h"
#include "protocols/one_way.h"

namespace {

using namespace popproto;
using namespace popproto::bench;

void run() {
    banner("E12 (extension): one-way vs two-way threshold protocols (Sect. 8)",
           "Threshold k = 3 with exactly 4 ones: convergence of the responder-only\n"
           "level protocol vs the standard two-way counting protocol.");

    Table table({"n", "model", "verdict", "mean inter.", "one-way/two-way"});
    const std::uint32_t threshold = 3;
    const std::uint64_t ones = 4;
    const int trials = 20;

    for (std::uint64_t n : {16ull, 32ull, 64ull, 128ull, 256ull}) {
        double two_way_mean = 0.0;
        for (const bool one_way : {false, true}) {
            const auto protocol = one_way ? make_one_way_counting_protocol(threshold)
                                          : make_counting_protocol(threshold);
            const auto initial =
                CountConfiguration::from_input_counts(*protocol, {n - ones, ones});
            std::vector<double> convergence;
            bool all_correct = true;
            for (int trial = 0; trial < trials; ++trial) {
                RunOptions options;
                options.max_interactions = default_budget(n, 256.0);
                options.seed = 7 * n + trial + (one_way ? 1000 : 0);
                options.engine = SimulationEngine::kAgentArray;
                const RunResult result = run_simulation(*protocol, initial, options);
                convergence.push_back(static_cast<double>(result.last_output_change));
                if (!result.consensus || *result.consensus != kOutputTrue)
                    all_correct = false;
            }
            const double m = mean(convergence);
            if (!one_way) two_way_mean = m;
            table.row({fmt_u(n), one_way ? "one-way" : "two-way",
                       all_correct ? "correct" : "WRONG", fmt(m, 0),
                       one_way ? fmt(m / two_way_mean, 2) : std::string("1.00")});
        }
    }
}

}  // namespace

int main() {
    run();
    return 0;
}
