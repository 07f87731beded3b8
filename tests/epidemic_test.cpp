// The epidemic broadcast primitive and its exact expected completion times.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "analysis/markov.h"
#include "analysis/stable_computation.h"
#include "core/simulator.h"
#include "protocols/epidemic.h"
#include "protocols/one_way.h"

#include "test_util.h"

namespace popproto {
namespace {

using testutil::run_engine;

TEST(Epidemic, TransitionTables) {
    const auto two_way = make_epidemic_protocol();
    EXPECT_EQ(two_way->apply(1, 0), (StatePair{1, 1}));
    EXPECT_EQ(two_way->apply(0, 1), (StatePair{1, 1}));
    EXPECT_TRUE(two_way->is_null_interaction(0, 0));
    EXPECT_TRUE(two_way->is_null_interaction(1, 1));

    const auto one_way = make_one_way_epidemic_protocol();
    EXPECT_EQ(one_way->apply(1, 0), (StatePair{1, 1}));
    EXPECT_TRUE(one_way->is_null_interaction(0, 1));
    EXPECT_TRUE(is_one_way(*one_way));
    EXPECT_FALSE(is_one_way(*two_way));
}

TEST(Epidemic, StablyInfectsEveryoneIffSeeded) {
    const auto protocol = make_epidemic_protocol();
    for (std::uint64_t n = 2; n <= 7; ++n) {
        for (std::uint64_t infected = 0; infected <= n; ++infected) {
            const auto initial =
                CountConfiguration::from_input_counts(*protocol, {n - infected, infected});
            EXPECT_TRUE(stably_computes_bool(*protocol, initial, infected > 0))
                << n << "," << infected;
        }
    }
}

using EpidemicCase = std::tuple<std::uint64_t, std::uint64_t>;  // (n, initially infected)

class EpidemicExpectation : public ::testing::TestWithParam<EpidemicCase> {};

TEST_P(EpidemicExpectation, MarkovMatchesClosedForm) {
    const auto [n, infected] = GetParam();
    const auto protocol = make_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {n - infected, infected});
    const double exact = expected_hitting_time(
        *protocol, initial,
        [n = n](const CountConfiguration& c) { return c.count(1) == n; });
    EXPECT_NEAR(exact, epidemic_expected_interactions(n, infected), 1e-9)
        << "n=" << n << " i=" << infected;
}

TEST_P(EpidemicExpectation, OneWayIsExactlyTwiceAsSlow) {
    const auto [n, infected] = GetParam();
    const auto protocol = make_one_way_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {n - infected, infected});
    const double exact = expected_hitting_time(
        *protocol, initial,
        [n = n](const CountConfiguration& c) { return c.count(1) == n; });
    EXPECT_NEAR(exact, one_way_epidemic_expected_interactions(n, infected), 1e-9);
    EXPECT_NEAR(exact, 2.0 * epidemic_expected_interactions(n, infected), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Grid, EpidemicExpectation,
                         ::testing::Combine(::testing::Values(3ull, 5ull, 8ull, 12ull),
                                            ::testing::Values(1ull, 2ull)));

TEST(Epidemic, SimulatedMeanTracksClosedForm) {
    const std::uint64_t n = 64;
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {n - 1, 1});
    const int trials = 400;
    double total = 0.0;
    for (int trial = 0; trial < trials; ++trial) {
        RunOptions options;
        options.max_interactions = 1u << 22;
        options.seed = 5000 + trial;
        const RunResult result = run_engine(SimulationEngine::kAgentArray,
                                            *protocol, initial, options);
        EXPECT_EQ(result.stop_reason, StopReason::kSilent);
        total += static_cast<double>(result.last_output_change);
    }
    const double mean = total / trials;
    const double expected = epidemic_expected_interactions(n, 1);
    EXPECT_NEAR(mean, expected, 0.08 * expected);
}

TEST(Epidemic, ClosedFormIsThetaNLogN) {
    // The Theorem 8 log factor: E[n] / (n ln n) should be ~1 for large n.
    for (std::uint64_t n : {64ull, 256ull, 1024ull}) {
        const double ratio = epidemic_expected_interactions(n, 1) /
                             (static_cast<double>(n) * std::log(static_cast<double>(n)));
        EXPECT_GT(ratio, 0.8) << n;
        EXPECT_LT(ratio, 1.3) << n;
    }
}

TEST(Epidemic, ClosedFormValidation) {
    EXPECT_THROW(epidemic_expected_interactions(1, 1), std::invalid_argument);
    EXPECT_THROW(epidemic_expected_interactions(5, 0), std::invalid_argument);
    EXPECT_THROW(epidemic_expected_interactions(5, 6), std::invalid_argument);
    EXPECT_EQ(epidemic_expected_interactions(5, 5), 0.0);
}

}  // namespace
}  // namespace popproto
