// E2: leader election takes exactly (n-1)^2 expected interactions (Sect. 6).
//
// The paper computes sum_{i=2}^{n} C(n,2)/C(i,2) = (n-1)^2.  We verify the
// closed form two independent ways: exactly, by solving the absorbing Markov
// chain over configurations (small n), and empirically, by Monte Carlo means
// (larger n).  The measured/theory ratio should be 1.000 within noise.

#include "analysis/markov.h"
#include "bench_util.h"
#include "core/batch_simulator.h"
#include "core/simulator.h"
#include "protocols/leader_election.h"

namespace {

using namespace popproto;
using namespace popproto::bench;

void run() {
    banner("E2: leader election expected interactions",
           "Paper: expected interactions to a unique leader = (n-1)^2 exactly.\n"
           "'markov' is the exact linear-system solution; 'measured' a Monte Carlo mean.");

    const auto protocol = make_leader_election_protocol();

    Table table({"n", "theory (n-1)^2", "markov exact", "measured", "meas/theory"});
    for (std::uint64_t n : {2ull, 4ull, 8ull, 16ull, 32ull, 64ull, 128ull, 256ull}) {
        const double theory = leader_election_expected_interactions(n);

        std::string markov_cell = "-";
        if (n <= 16) {
            const auto initial = CountConfiguration::from_input_counts(*protocol, {n});
            const double exact = expected_hitting_time(
                *protocol, initial,
                [](const CountConfiguration& c) { return c.count(1) == 1; });
            markov_cell = fmt(exact, 3);
        }

        const int trials = n <= 64 ? 400 : 120;
        std::vector<double> measured;
        for (int trial = 0; trial < trials; ++trial) {
            const auto initial = CountConfiguration::from_input_counts(*protocol, {n});
            RunOptions options;
            options.max_interactions = 64 * n * n + 1024;
            options.seed = 7919 * n + trial;
            options.engine = SimulationEngine::kAgentArray;
            const RunResult result = run_simulation(*protocol, initial, options);
            measured.push_back(static_cast<double>(result.last_output_change));
        }
        const double m = mean(measured);
        table.row({fmt_u(n), fmt(theory, 0), markov_cell, fmt(m, 1), fmt(m / theory, 3)});
    }
}

}  // namespace

int main() {
    run();
    return 0;
}
