// The Sect. 3.4 division protocol: m = r + d*q invariant, exhaustive
// stable computation of floor(m / d), and silence of final configurations.

#include <gtest/gtest.h>

#include <tuple>

#include "analysis/stable_computation.h"
#include "core/rng.h"
#include "core/simulator.h"
#include "protocols/division.h"
#include "test_util.h"

namespace popproto {
namespace {

using testutil::run_engine;

TEST(DivisionProtocol, PaperDivideByThreeTransitions) {
    const auto protocol = make_division_protocol(3);
    // States are (r, j) encoded as r*2+j; (1,0)=2, (2,0)=4, (0,1)=1, (0,0)=0.
    // (1,0) + (1,0) -> (2,0), (0,0): consolidation.
    EXPECT_EQ(protocol->apply(2, 2), (StatePair{4, 0}));
    // (2,0) + (1,0): 3 >= 3 -> (0,0), (0,1): quotient deposit.
    EXPECT_EQ(protocol->apply(4, 2), (StatePair{0, 1}));
    // (2,0) + (2,0): 4 >= 3 -> (1,0), (0,1).
    EXPECT_EQ(protocol->apply(4, 4), (StatePair{2, 1}));
    // Quotient holders are inert.
    EXPECT_EQ(protocol->apply(1, 2), (StatePair{1, 2}));
    EXPECT_EQ(protocol->apply(4, 1), (StatePair{4, 1}));
}

using DivisionCase = std::tuple<std::uint32_t, std::uint64_t>;  // (divisor, n)

class DivisionStableComputation : public ::testing::TestWithParam<DivisionCase> {};

TEST_P(DivisionStableComputation, StableSignatureIsFloorQuotient) {
    const auto [divisor, population] = GetParam();
    const auto protocol = make_division_protocol(divisor);
    for (std::uint64_t ones = 0; ones <= population; ++ones) {
        const auto initial =
            CountConfiguration::from_input_counts(*protocol, {population - ones, ones});
        const StableComputationResult result = analyze_stable_computation(*protocol, initial);
        ASSERT_TRUE(result.always_converges) << "d=" << divisor << " m=" << ones;
        ASSERT_TRUE(result.single_valued()) << "d=" << divisor << " m=" << ones;
        // Output signature: counts of output symbols (0, 1); the represented
        // integer (integer output convention) is the count of 1-outputs.
        const std::uint64_t quotient = result.stable_signatures.front()[1];
        EXPECT_EQ(quotient, ones / divisor) << "d=" << divisor << " m=" << ones;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DivisionStableComputation,
                         ::testing::Combine(::testing::Values(2u, 3u, 4u),
                                            ::testing::Values(1u, 4u, 6u, 8u)));

TEST(DivisionProtocol, InvariantHoldsAlongRandomExecutions) {
    // m = remainder-sum + divisor * quotient-sum at every step
    // (the induction in Sect. 3.4).
    for (std::uint32_t divisor : {2u, 3u, 5u}) {
        const auto protocol = make_division_protocol(divisor);
        const std::uint64_t ones = 11;
        auto config = CountConfiguration::from_input_counts(*protocol, {4, ones});
        auto agents = AgentConfiguration::from_counts(config);
        Rng rng(divisor);
        for (int step = 0; step < 500; ++step) {
            const std::size_t i = rng.below(agents.size());
            std::size_t j = rng.below(agents.size() - 1);
            if (j >= i) ++j;
            agents.apply_interaction(*protocol, i, j);
            const DivisionReading reading =
                read_division(*protocol, agents.to_counts(protocol->num_states()), divisor);
            EXPECT_EQ(reading.remainder + divisor * reading.quotient, ones);
        }
    }
}

TEST(DivisionProtocol, SimulationConvergesToQuotient) {
    const std::uint32_t divisor = 3;
    const auto protocol = make_division_protocol(divisor);
    const std::uint64_t zeros = 40;
    const std::uint64_t ones = 35;
    const auto initial = CountConfiguration::from_input_counts(*protocol, {zeros, ones});
    RunOptions options;
    options.max_interactions = default_budget(zeros + ones);
    options.seed = 21;
    const RunResult result = run_engine(SimulationEngine::kAgentArray, *protocol, initial, options);
    EXPECT_EQ(result.stop_reason, StopReason::kSilent);
    const DivisionReading reading =
        read_division(*protocol, result.final_configuration, divisor);
    EXPECT_EQ(reading.quotient, ones / divisor);
    EXPECT_EQ(reading.remainder, ones % divisor);
}

TEST(DivisionProtocol, RejectsTrivialDivisor) {
    EXPECT_THROW(make_division_protocol(0), std::invalid_argument);
    EXPECT_THROW(make_division_protocol(1), std::invalid_argument);
}

}  // namespace
}  // namespace popproto
