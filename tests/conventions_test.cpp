// Encoding conventions (Sect. 3.4) and exact function computation, including
// the divmod protocol under the integer-based output convention.

#include <gtest/gtest.h>

#include "analysis/stable_computation.h"
#include "core/conventions.h"
#include "core/simulator.h"
#include "protocols/division.h"

#include "test_util.h"

namespace popproto {
namespace {

using testutil::run_engine;

TEST(Conventions, IntegerInputDecode) {
    // The paper's Sect. 4.3 token alphabet: (0,0), (1,0), (-1,0), (0,1), (0,-1).
    const IntegerInputConvention convention{
        {{0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}}};
    EXPECT_EQ(convention.arity(), 2u);
    EXPECT_EQ(convention.decode({3, 2, 1, 0, 4}), (std::vector<std::int64_t>{1, -4}));
    EXPECT_EQ(convention.decode({0, 0, 0, 0, 0}), (std::vector<std::int64_t>{0, 0}));
    EXPECT_THROW(convention.decode({1, 2}), std::invalid_argument);
}

TEST(Conventions, IntegerOutputDecode) {
    const IntegerOutputConvention convention{{{0}, {1}, {5}}};
    EXPECT_EQ(convention.decode({7, 3, 2}), (std::vector<std::int64_t>{13}));
}

TEST(Conventions, AllAgentsPredicateDecode) {
    EXPECT_EQ(decode_all_agents_predicate({5, 0}), std::optional<bool>(false));
    EXPECT_EQ(decode_all_agents_predicate({0, 4}), std::optional<bool>(true));
    EXPECT_EQ(decode_all_agents_predicate({1, 3}), std::nullopt);  // bottom
    EXPECT_THROW(decode_all_agents_predicate({1, 2, 3}), std::invalid_argument);
}

TEST(Conventions, ZeroNonzeroDecode) {
    EXPECT_FALSE(decode_zero_nonzero_predicate({5, 0}));
    EXPECT_TRUE(decode_zero_nonzero_predicate({4, 1}));
}

TEST(Conventions, DivisionComputesFloorAsIntegerFunction) {
    // The Sect. 3.4 division protocol under the convention "output symbol 1
    // carries value 1": the represented result is floor(m / d).
    const std::uint32_t divisor = 3;
    const auto protocol = make_division_protocol(divisor);
    const IntegerOutputConvention quotient_only{{{0}, {1}}};
    for (std::uint64_t ones = 0; ones <= 8; ++ones) {
        const auto initial = CountConfiguration::from_input_counts(*protocol, {2, ones});
        EXPECT_TRUE(stably_computes_integer_function(
            *protocol, initial, quotient_only,
            {static_cast<std::int64_t>(ones / divisor)}))
            << ones;
        EXPECT_FALSE(stably_computes_integer_function(
            *protocol, initial, quotient_only,
            {static_cast<std::int64_t>(ones / divisor) + 1}))
            << ones;
    }
}

TEST(Conventions, DivmodProtocolComputesThePair) {
    // The identity-output variant represents (m mod d, floor(m/d)) - the
    // paper's closing remark in Sect. 3.4.
    for (std::uint32_t divisor : {2u, 3u, 4u}) {
        const auto protocol = make_divmod_protocol(divisor);
        const IntegerOutputConvention convention = divmod_output_convention(divisor);
        ASSERT_EQ(convention.symbol_values.size(), protocol->num_output_symbols());
        for (std::uint64_t ones = 0; ones <= 7; ++ones) {
            const auto initial =
                CountConfiguration::from_input_counts(*protocol, {2, ones});
            const std::vector<std::int64_t> expected{
                static_cast<std::int64_t>(ones % divisor),
                static_cast<std::int64_t>(ones / divisor)};
            EXPECT_TRUE(
                stably_computes_integer_function(*protocol, initial, convention, expected))
                << "d=" << divisor << " m=" << ones;
        }
    }
}

TEST(Conventions, DivmodSimulationDecodesCorrectly) {
    const std::uint32_t divisor = 5;
    const auto protocol = make_divmod_protocol(divisor);
    const IntegerOutputConvention convention = divmod_output_convention(divisor);
    const std::uint64_t ones = 43;
    const auto initial = CountConfiguration::from_input_counts(*protocol, {17, ones});
    RunOptions options;
    options.max_interactions = default_budget(60);
    options.seed = 4;
    const RunResult result = run_engine(SimulationEngine::kAgentArray, *protocol, initial, options);
    EXPECT_EQ(result.stop_reason, StopReason::kSilent);
    const auto decoded = convention.decode(result.final_configuration.output_counts(*protocol));
    EXPECT_EQ(decoded, (std::vector<std::int64_t>{43 % divisor, 43 / divisor}));
}

}  // namespace
}  // namespace popproto
