// Leader election: stable computation, exact (n-1)^2 expected interactions
// (Markov solve), and simulation agreement.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/markov.h"
#include "analysis/stable_computation.h"
#include "core/rng.h"
#include "core/simulator.h"
#include "protocols/leader_election.h"

#include "test_util.h"

namespace popproto {
namespace {

using testutil::run_engine;

TEST(LeaderElection, TransitionTable) {
    const auto protocol = make_leader_election_protocol();
    EXPECT_EQ(protocol->apply(1, 1), (StatePair{1, 0}));  // responder abdicates
    EXPECT_TRUE(protocol->is_null_interaction(1, 0));
    EXPECT_TRUE(protocol->is_null_interaction(0, 1));
    EXPECT_TRUE(protocol->is_null_interaction(0, 0));
}

TEST(LeaderElection, StabilizesToExactlyOneLeader) {
    const auto protocol = make_leader_election_protocol();
    for (std::uint64_t n = 1; n <= 8; ++n) {
        const auto initial = CountConfiguration::from_input_counts(*protocol, {n});
        const StableComputationResult result = analyze_stable_computation(*protocol, initial);
        ASSERT_TRUE(result.single_valued()) << n;
        EXPECT_EQ(result.stable_signatures.front()[1], 1u) << n;  // one leader
    }
}

TEST(LeaderElection, ClosedFormMatchesMarkovChain) {
    const auto protocol = make_leader_election_protocol();
    for (std::uint64_t n : {2ull, 4ull, 7ull, 10ull}) {
        const auto initial = CountConfiguration::from_input_counts(*protocol, {n});
        const double exact = expected_hitting_time(
            *protocol, initial,
            [](const CountConfiguration& c) { return c.count(1) == 1; });
        EXPECT_NEAR(exact, leader_election_expected_interactions(n), 1e-6) << n;
    }
}

TEST(LeaderElection, SimulatedMeanTracksClosedForm) {
    // Monte Carlo mean over many runs of n = 24 should land within a few
    // percent of (n-1)^2 = 529.
    const auto protocol = make_leader_election_protocol();
    const std::uint64_t n = 24;
    const int trials = 400;
    double total = 0.0;
    for (int trial = 0; trial < trials; ++trial) {
        const auto initial = CountConfiguration::from_input_counts(*protocol, {n});
        RunOptions options;
        options.max_interactions = 1u << 22;
        options.seed = 1000 + trial;
        const RunResult result = run_engine(SimulationEngine::kAgentArray,
                                            *protocol, initial, options);
        EXPECT_EQ(result.stop_reason, StopReason::kSilent);
        // The election finishes at the last effective interaction; with only
        // leader-leader transitions, that is last_output_change.
        total += static_cast<double>(result.last_output_change);
    }
    const double mean = total / trials;
    const double expected = leader_election_expected_interactions(n);
    EXPECT_NEAR(mean, expected, 0.1 * expected);
}

TEST(LeaderElection, CountLeadersHelper) {
    const auto protocol = make_leader_election_protocol();
    auto config = CountConfiguration::from_input_counts(*protocol, {5});
    EXPECT_EQ(count_leaders(config), 5u);
    config.apply_interaction(*protocol, 1, 1);
    EXPECT_EQ(count_leaders(config), 4u);
    CountConfiguration wrong(3);
    EXPECT_THROW(count_leaders(wrong), std::invalid_argument);
}

}  // namespace
}  // namespace popproto
