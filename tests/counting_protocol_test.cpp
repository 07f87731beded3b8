// The flock-of-birds counting protocol: the paper's running example.
// Includes the exact 6-agent trace from Sect. 3.2 and exhaustive
// stable-computation sweeps over thresholds and population sizes.

#include <gtest/gtest.h>

#include <tuple>

#include "analysis/stable_computation.h"
#include "core/simulator.h"
#include "protocols/counting.h"
#include "test_util.h"

namespace popproto {
namespace {

using testutil::run_engine;

TEST(CountingProtocol, MatchesPaperTransitionFunction) {
    const auto protocol = make_counting_protocol(5);
    ASSERT_EQ(protocol->num_states(), 6u);
    // delta(q_i, q_j) = (q_{i+j}, q_0) if i + j < 5, else (q_5, q_5).
    EXPECT_EQ(protocol->apply(1, 1), (StatePair{2, 0}));
    EXPECT_EQ(protocol->apply(2, 2), (StatePair{4, 0}));
    EXPECT_EQ(protocol->apply(2, 3), (StatePair{5, 5}));
    EXPECT_EQ(protocol->apply(5, 0), (StatePair{5, 5}));
    EXPECT_EQ(protocol->apply(0, 0), (StatePair{0, 0}));
    // Output: only q_5 says true.
    for (State q = 0; q < 5; ++q) EXPECT_EQ(protocol->output(q), kOutputFalse);
    EXPECT_EQ(protocol->output(5), kOutputTrue);
}

TEST(CountingProtocol, ReproducesPaperExampleComputation) {
    // Input (0,1,0,1,1,1) and the encounter sequence (2,4), (6,5), (2,6),
    // (3,2) from the Sect. 3.2 example (1-based agent indices).
    const auto protocol = make_counting_protocol(5);
    auto agents = AgentConfiguration::from_inputs(
        *protocol, {kInputZero, kInputOne, kInputZero, kInputOne, kInputOne, kInputOne});

    agents.apply_interaction(*protocol, 1, 3);  // (2,4): q1,q1 -> q2,q0
    EXPECT_EQ(agents.state(1), 2u);
    EXPECT_EQ(agents.state(3), 0u);

    agents.apply_interaction(*protocol, 5, 4);  // (6,5): q1,q1 -> q2,q0
    EXPECT_EQ(agents.state(5), 2u);
    EXPECT_EQ(agents.state(4), 0u);

    agents.apply_interaction(*protocol, 1, 5);  // (2,6): q2,q2 -> q4,q0
    EXPECT_EQ(agents.state(1), 4u);
    EXPECT_EQ(agents.state(5), 0u);

    agents.apply_interaction(*protocol, 2, 1);  // (3,2): q0,q4 -> q4,q0
    EXPECT_EQ(agents.state(2), 4u);
    EXPECT_EQ(agents.state(1), 0u);

    // The output assignment is all-zero: F(0,1,0,1,1,1) = (0,...,0).
    const auto counts = agents.to_counts(protocol->num_states());
    ASSERT_TRUE(counts.consensus_output(*protocol).has_value());
    EXPECT_EQ(*counts.consensus_output(*protocol), kOutputFalse);
}

// Exhaustive stable-computation sweep: (threshold, population).
using CountingCase = std::tuple<std::uint32_t, std::uint64_t>;

class CountingStableComputation : public ::testing::TestWithParam<CountingCase> {};

TEST_P(CountingStableComputation, AllInputsComputeExactThreshold) {
    const auto [threshold, population] = GetParam();
    const auto protocol = make_counting_protocol(threshold);
    for (std::uint64_t ones = 0; ones <= population; ++ones) {
        const auto initial =
            CountConfiguration::from_input_counts(*protocol, {population - ones, ones});
        const bool expected = ones >= threshold;
        EXPECT_TRUE(stably_computes_bool(*protocol, initial, expected))
            << "threshold=" << threshold << " n=" << population << " ones=" << ones;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CountingStableComputation,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u),
                                            ::testing::Values(1u, 2u, 5u, 7u)));

TEST(CountingProtocol, SilentFinalConfigurationUnderSimulation) {
    const auto protocol = make_counting_protocol(5);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {20, 30});
    RunOptions options;
    options.max_interactions = default_budget(50);
    options.seed = 77;
    const RunResult result = run_engine(SimulationEngine::kAgentArray, *protocol, initial, options);
    EXPECT_EQ(result.stop_reason, StopReason::kSilent);
    ASSERT_TRUE(result.consensus.has_value());
    EXPECT_EQ(*result.consensus, kOutputTrue);
}

TEST(CountingProtocol, ConservesTokenSumBelowThreshold) {
    // As long as nobody alerts, the sum of counter values equals the number
    // of ones (the counting invariant behind the protocol's correctness).
    const auto protocol = make_counting_protocol(5);
    auto agents = AgentConfiguration::from_inputs(
        *protocol, {kInputOne, kInputOne, kInputOne, kInputZero, kInputZero});
    Rng rng(5);
    for (int step = 0; step < 200; ++step) {
        const std::size_t i = rng.below(agents.size());
        std::size_t j = rng.below(agents.size() - 1);
        if (j >= i) ++j;
        agents.apply_interaction(*protocol, i, j);
        std::uint64_t sum = 0;
        for (State q : agents.states()) sum += q;
        EXPECT_EQ(sum, 3u);  // 3 ones, threshold never reached
    }
}

TEST(CountingProtocol, RejectsZeroThreshold) {
    EXPECT_THROW(make_counting_protocol(0), std::invalid_argument);
}

}  // namespace
}  // namespace popproto
