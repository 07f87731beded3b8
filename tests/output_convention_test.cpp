// Theorem 2: the zero/non-zero output convention is no stronger than the
// all-agents convention.

#include <gtest/gtest.h>

#include "analysis/stable_computation.h"
#include "core/simulator.h"
#include "protocols/output_convention.h"
#include "test_util.h"

namespace popproto {
namespace {

using testutil::run_engine;

/// A protocol with *no* transitions whose output is the agent's own input
/// bit.  Under the zero/non-zero convention it stably computes OR of the
/// inputs; under the all-agents convention it computes nothing (agents
/// disagree whenever inputs are mixed).
std::unique_ptr<TabulatedProtocol> make_identity_bit_protocol() {
    TabulatedProtocol::Tables tables;
    tables.num_output_symbols = 2;
    tables.initial = {0, 1};
    tables.output = {0, 1};
    tables.delta = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
    return std::make_unique<TabulatedProtocol>(std::move(tables));
}

TEST(OutputConvention, BaseProtocolDisagreesOnMixedInputs) {
    const auto base = make_identity_bit_protocol();
    const auto mixed = CountConfiguration::from_input_counts(*base, {2, 2});
    EXPECT_FALSE(mixed.consensus_output(*base).has_value());
}

TEST(OutputConvention, TransformedProtocolComputesOrExhaustively) {
    const auto base = make_identity_bit_protocol();
    const auto all_agents = make_all_agents_protocol(*base);
    for (std::uint64_t n = 1; n <= 6; ++n) {
        testutil::for_each_composition(n, 2, [&](const std::vector<std::uint64_t>& counts) {
            const auto initial = CountConfiguration::from_input_counts(*all_agents, counts);
            const bool expected = counts[1] > 0;  // OR of the input bits
            EXPECT_TRUE(stably_computes_bool(*all_agents, initial, expected))
                << counts[0] << "," << counts[1];
        });
    }
}

TEST(OutputConvention, TransformedProtocolConvergesUnderSimulation) {
    const auto base = make_identity_bit_protocol();
    const auto all_agents = make_all_agents_protocol(*base);
    for (const auto& [zeros, ones] :
         std::vector<std::pair<std::uint64_t, std::uint64_t>>{{50, 0}, {49, 1}, {0, 50}}) {
        const auto initial =
            CountConfiguration::from_input_counts(*all_agents, {zeros, ones});
        RunOptions options;
        options.max_interactions = default_budget(zeros + ones);
        options.stop_after_stable_outputs = 200 * (zeros + ones);
        options.seed = 13 + ones;
        const RunResult result = run_engine(SimulationEngine::kAgentArray,
                                            *all_agents, initial, options);
        ASSERT_TRUE(result.consensus.has_value()) << zeros << "," << ones;
        EXPECT_EQ(*result.consensus, ones > 0 ? kOutputTrue : kOutputFalse);
    }
}

TEST(OutputConvention, StateSpaceIsFourTimesBase) {
    const auto base = make_identity_bit_protocol();
    const auto all_agents = make_all_agents_protocol(*base);
    EXPECT_EQ(all_agents->num_states(), 4 * base->num_states());
    EXPECT_EQ(all_agents->num_input_symbols(), base->num_input_symbols());
}

TEST(OutputConvention, SingleWitnessComputesZeroOneInteger) {
    // Sect. 3.6 closing remark: true is represented by exactly one agent
    // outputting 1.  Verified exactly via the integer output convention.
    const auto base = make_identity_bit_protocol();
    const auto witness = make_single_witness_protocol(*base);
    const IntegerOutputConvention zero_one{{{0}, {1}}};
    for (std::uint64_t n = 1; n <= 5; ++n) {
        testutil::for_each_composition(n, 2, [&](const std::vector<std::uint64_t>& counts) {
            const auto initial = CountConfiguration::from_input_counts(*witness, counts);
            const std::int64_t expected = counts[1] > 0 ? 1 : 0;
            EXPECT_TRUE(
                stably_computes_integer_function(*witness, initial, zero_one, {expected}))
                << counts[0] << "," << counts[1];
        });
    }
}

TEST(OutputConvention, SingleWitnessSimulationHasOneWitness) {
    const auto base = make_identity_bit_protocol();
    const auto witness = make_single_witness_protocol(*base);
    const auto initial = CountConfiguration::from_input_counts(*witness, {30, 10});
    RunOptions options;
    options.max_interactions = default_budget(40);
    options.stop_after_stable_outputs = 40 * 200;
    options.seed = 6;
    const RunResult result = run_engine(SimulationEngine::kAgentArray, *witness, initial, options);
    const auto outputs = result.final_configuration.output_counts(*witness);
    EXPECT_EQ(outputs[kOutputTrue], 1u);   // exactly one witness
    EXPECT_EQ(outputs[kOutputFalse], 39u);
}

TEST(OutputConvention, RequiresBooleanBase) {
    TabulatedProtocol::Tables tables;
    tables.num_output_symbols = 3;
    tables.initial = {0};
    tables.output = {0};
    tables.delta = {{0, 0}};
    const TabulatedProtocol base(std::move(tables));
    EXPECT_THROW(make_all_agents_protocol(base), std::invalid_argument);
}

}  // namespace
}  // namespace popproto
