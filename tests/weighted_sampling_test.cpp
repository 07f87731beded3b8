// Weighted pair sampling (the Sect. 8 open direction): correctness of
// stably-computing protocols should be insensitive to reasonable weights.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "presburger/atom_protocols.h"
#include "protocols/counting.h"

namespace popproto {
namespace {

AgentConfiguration counting_inputs(const TabulatedProtocol& protocol, std::size_t zeros,
                                   std::size_t ones) {
    std::vector<Symbol> inputs(zeros, kInputZero);
    inputs.insert(inputs.end(), ones, kInputOne);
    return AgentConfiguration::from_inputs(protocol, inputs);
}

TEST(WeightedSampling, UniformWeightsBehaveLikeUniformSampling) {
    const auto protocol = make_counting_protocol(3);
    const auto initial = counting_inputs(*protocol, 20, 5);
    const std::vector<double> weights(25, 1.0);
    RunOptions options;
    options.max_interactions = default_budget(25);
    options.seed = 8;
    const RunResult result = simulate_weighted(*protocol, initial, weights, options);
    EXPECT_EQ(result.stop_reason, StopReason::kSilent);
    ASSERT_TRUE(result.consensus.has_value());
    EXPECT_EQ(*result.consensus, kOutputTrue);
}

TEST(WeightedSampling, SkewedWeightsStillConvergeCorrectly) {
    // Mobility heterogeneity (weights spanning a 16x range) must not change
    // the stable verdict - the paper's conjecture, checked on majority.
    const auto protocol = make_threshold_protocol({1, -1}, 0);  // x0 < x1
    for (const auto& [zeros, ones] :
         std::vector<std::pair<std::size_t, std::size_t>>{{14, 16}, {16, 14}}) {
        std::vector<Symbol> inputs(zeros, 0);
        inputs.insert(inputs.end(), ones, 1);
        const auto initial = AgentConfiguration::from_inputs(*protocol, inputs);
        std::vector<double> weights(zeros + ones);
        for (std::size_t i = 0; i < weights.size(); ++i)
            weights[i] = 1.0 + 15.0 * static_cast<double>(i % 7) / 6.0;

        RunOptions options;
        options.max_interactions = default_budget(zeros + ones, 256.0);
        options.seed = 100 + ones;
        const RunResult result = simulate_weighted(*protocol, initial, weights, options);
        ASSERT_TRUE(result.consensus.has_value()) << zeros << "," << ones;
        EXPECT_EQ(*result.consensus, zeros < ones ? kOutputTrue : kOutputFalse);
    }
}

TEST(WeightedSampling, ExtremeWeightSlowsButDoesNotBreakConvergence) {
    // One nearly-immobile agent (tiny weight) carrying a needed token: it is
    // still selected eventually, so the computation completes.
    const auto protocol = make_counting_protocol(2);
    const auto initial = counting_inputs(*protocol, 10, 2);
    std::vector<double> weights(12, 1.0);
    weights[10] = 0.01;  // one of the 1-agents barely moves
    RunOptions options;
    options.max_interactions = 100 * default_budget(12);
    options.seed = 17;
    const RunResult result = simulate_weighted(*protocol, initial, weights, options);
    ASSERT_TRUE(result.consensus.has_value());
    EXPECT_EQ(*result.consensus, kOutputTrue);
}

TEST(WeightedSampling, DominatingWeightDoesNotStallPairSelection) {
    // Regression: one weight carrying ~all the mass made the responder
    // rejection loop spin (the first draw returns the dominant agent with
    // probability ~1).  The bounded loop now falls back to an exact
    // exclusion draw, so the run terminates and still converges.
    const auto protocol = make_counting_protocol(2);
    const auto initial = counting_inputs(*protocol, 10, 2);
    std::vector<double> weights(12, 1.0);
    weights[10] = 1e12;  // one of the two 1-agents does nearly all the moving
    RunOptions options;
    options.max_interactions = 10 * default_budget(12);
    options.seed = 23;
    const RunResult result = simulate_weighted(*protocol, initial, weights, options);
    ASSERT_TRUE(result.consensus.has_value());
    EXPECT_EQ(*result.consensus, kOutputTrue);
}

TEST(WeightedSampling, ValidatesArguments) {
    const auto protocol = make_counting_protocol(2);
    const auto initial = counting_inputs(*protocol, 2, 2);
    RunOptions options;
    options.max_interactions = 100;
    EXPECT_THROW(simulate_weighted(*protocol, initial, {1.0, 1.0}, options),
                 std::invalid_argument);
    EXPECT_THROW(simulate_weighted(*protocol, initial, {1.0, 1.0, 1.0, -1.0}, options),
                 std::invalid_argument);
    EXPECT_THROW(simulate_weighted(*protocol, initial, {1.0, 1.0, 1.0, 0.0}, options),
                 std::invalid_argument);
}

// An AgentConfiguration carries no state count, so agents built for a
// larger protocol can reach simulate_weighted.  The entry point must refuse
// them instead of indexing its counts and the δ table out of bounds.
TEST(WeightedSampling, RejectsStatesOutsideTheProtocol) {
    const auto large = make_counting_protocol(40);
    const auto small = make_counting_protocol(1);
    const auto agents = AgentConfiguration::from_states({0, 1, 0, 40, 0, 1, 0, 39},
                                                        large->num_states());
    const std::vector<double> weights(agents.size(), 1.0);
    RunOptions options;
    options.max_interactions = 100;
    try {
        simulate_weighted(*small, agents, weights, options);
        FAIL() << "states outside the protocol were accepted";
    } catch (const std::invalid_argument& error) {
        EXPECT_EQ(std::string(error.what()), "simulate_weighted: initial state out of range");
    }
}

TEST(WeightedSampling, DeterministicGivenSeed) {
    const auto protocol = make_counting_protocol(2);
    const auto initial = counting_inputs(*protocol, 8, 3);
    std::vector<double> weights(11, 1.0);
    weights[0] = 3.0;
    RunOptions options;
    options.max_interactions = default_budget(11);
    options.seed = 77;
    const RunResult a = simulate_weighted(*protocol, initial, weights, options);
    const RunResult b = simulate_weighted(*protocol, initial, weights, options);
    EXPECT_EQ(a.interactions, b.interactions);
    EXPECT_EQ(a.final_configuration, b.final_configuration);
}

}  // namespace
}  // namespace popproto
