// One-way (responder-only) threshold protocol from the Sect. 8 discussion.

#include <gtest/gtest.h>

#include <tuple>

#include "analysis/stable_computation.h"
#include "core/simulator.h"
#include "protocols/counting.h"
#include "protocols/one_way.h"

#include "test_util.h"

namespace popproto {
namespace {

using testutil::run_engine;

TEST(OneWay, ProtocolIsActuallyOneWay) {
    for (std::uint32_t k : {1u, 2u, 4u}) {
        const auto protocol = make_one_way_counting_protocol(k);
        EXPECT_TRUE(is_one_way(*protocol)) << k;
    }
}

TEST(OneWay, TwoWayCountingIsNotOneWay) {
    const auto protocol = make_counting_protocol(5);
    EXPECT_FALSE(is_one_way(*protocol));
}

using OneWayCase = std::tuple<std::uint32_t, std::uint64_t>;  // (threshold k, n)

class OneWayStableComputation : public ::testing::TestWithParam<OneWayCase> {};

TEST_P(OneWayStableComputation, ComputesThresholdExhaustively) {
    const auto [threshold, population] = GetParam();
    const auto protocol = make_one_way_counting_protocol(threshold);
    for (std::uint64_t ones = 0; ones <= population; ++ones) {
        const auto initial =
            CountConfiguration::from_input_counts(*protocol, {population - ones, ones});
        const bool expected = ones >= threshold;
        EXPECT_TRUE(stably_computes_bool(*protocol, initial, expected))
            << "k=" << threshold << " n=" << population << " ones=" << ones;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OneWayStableComputation,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                                            ::testing::Values(1u, 3u, 5u, 6u)));

TEST(OneWay, LevelNeverExceedsNumberOfOnes) {
    // The structural fact behind correctness: in every reachable
    // configuration the maximum level is at most the number of 1-inputs.
    const std::uint32_t k = 4;
    const auto protocol = make_one_way_counting_protocol(k);
    for (std::uint64_t ones = 0; ones <= 3; ++ones) {
        const auto initial = CountConfiguration::from_input_counts(*protocol, {2, ones});
        const ConfigurationGraph graph = explore_reachable(*protocol, initial);
        ASSERT_TRUE(graph.complete);
        for (const CountConfiguration& config : graph.configs) {
            for (State level = static_cast<State>(ones) + 1; level <= k; ++level)
                EXPECT_EQ(config.count(level), 0u)
                    << "ones=" << ones << " level=" << level;
        }
    }
}

TEST(OneWay, ConvergesUnderSimulation) {
    const auto protocol = make_one_way_counting_protocol(3);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {40, 10});
    RunOptions options;
    options.max_interactions = default_budget(50);
    options.seed = 5;
    const RunResult result = run_engine(SimulationEngine::kAgentArray, *protocol, initial, options);
    ASSERT_TRUE(result.consensus.has_value());
    EXPECT_EQ(*result.consensus, kOutputTrue);
}

}  // namespace
}  // namespace popproto
