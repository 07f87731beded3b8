// E8: Theorem 7 - any weakly-connected interaction graph can simulate the
// complete graph.
//
// We run the counting protocol directly on the complete graph and its Fig. 1
// lift A' on line, ring, star, and random connected graphs.  The claim is
// qualitative (A' stably computes the same predicate); we additionally
// report the convergence overhead of the baton construction per topology.

#include "bench_util.h"
#include "core/batch_simulator.h"
#include "core/simulator.h"
#include "graphs/graph_simulation.h"
#include "graphs/interaction_graph.h"
#include "protocols/counting.h"

namespace {

using namespace popproto;
using namespace popproto::bench;

void run() {
    banner("E8: restricted interaction graphs (Theorem 7)",
           "Count-to-3 on n = 16 agents: direct protocol on the complete graph vs the\n"
           "Fig. 1 simulator A' on weakly-connected topologies.  All rows must be correct;\n"
           "'overhead' is convergence relative to the direct complete-graph run.");

    const std::uint32_t n = 16;
    const std::uint64_t ones = 5;  // answer: true (>= 3)
    const auto base = make_counting_protocol(3);
    const auto sim = make_graph_simulation_protocol(*base);

    const int trials = 10;

    // Baseline: the plain protocol on the complete graph.
    std::vector<double> baseline;
    bool baseline_correct = true;
    for (int trial = 0; trial < trials; ++trial) {
        const auto initial =
            CountConfiguration::from_input_counts(*base, {n - ones, ones});
        RunOptions options;
        options.max_interactions = default_budget(n);
        options.seed = 42 + trial;
        options.engine = SimulationEngine::kAgentArray;
        const RunResult result = run_simulation(*base, initial, options);
        baseline.push_back(static_cast<double>(result.last_output_change));
        if (!result.consensus || *result.consensus != kOutputTrue) baseline_correct = false;
    }
    const double baseline_mean = mean(baseline);

    Table table({"topology", "edges", "verdict", "mean conv.", "overhead"});
    table.row({"complete(direct)", fmt_u(n * (n - 1)),
               baseline_correct ? "correct" : "WRONG", fmt(baseline_mean, 0), fmt(1.0, 2)});

    struct Topology {
        const char* name;
        InteractionGraph graph;
    };
    std::vector<Topology> topologies;
    topologies.push_back({"complete(A')", InteractionGraph::complete(n)});
    topologies.push_back({"line(A')", InteractionGraph::line(n)});
    topologies.push_back({"ring(A')", InteractionGraph::ring(n)});
    topologies.push_back({"star(A')", InteractionGraph::star(n)});
    topologies.push_back({"grid4x4(A')", InteractionGraph::grid(4, 4)});
    topologies.push_back({"random(A')", InteractionGraph::random_connected(n, 8, 5)});

    std::vector<Symbol> inputs(n, kInputZero);
    for (std::uint64_t i = 0; i < ones; ++i) inputs[3 * i % n] = kInputOne;

    for (const Topology& topology : topologies) {
        std::vector<double> convergence;
        bool all_correct = true;
        for (int trial = 0; trial < trials; ++trial) {
            RunOptions options;
            options.max_interactions = 80'000'000;
            options.stop_after_stable_outputs = 500'000;
            options.seed = 1000 + trial;
            const GraphRunResult result =
                simulate_on_graph(*sim, topology.graph, inputs, options);
            convergence.push_back(static_cast<double>(result.last_output_change));
            if (!result.consensus || *result.consensus != kOutputTrue) all_correct = false;
        }
        table.row({topology.name, fmt_u(topology.graph.edges().size()),
                   all_correct ? "correct" : "WRONG", fmt(mean(convergence), 0),
                   fmt(mean(convergence) / baseline_mean, 1)});
    }
}

}  // namespace

int main() {
    run();
    return 0;
}
