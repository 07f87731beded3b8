// Fault injection (the Sect. 8 fault-tolerance discussion).
//
// The paper observes that the *model* tolerates crashes gracefully (the
// remaining agents' interactions are unaffected) but most of its algorithms
// do not: killing the agent that has accumulated the count, or the unique
// leader, silently corrupts the computation, while epidemic-style phases are
// robust.  These tests demonstrate each observation exactly, by removing
// agents from configurations and re-running the analyzer.

#include <gtest/gtest.h>

#include "analysis/stable_computation.h"
#include "core/simulator.h"
#include "protocols/counting.h"
#include "protocols/leader_election.h"
#include "presburger/atom_protocols.h"

#include "test_util.h"

namespace popproto {
namespace {

using testutil::run_engine;

TEST(FaultTolerance, KillingTheTokenHolderLosesTheCount) {
    // 4 ones merge into a single q4 token; if that agent dies, the surviving
    // population stabilizes to "fewer than 5" even if a fifth one arrives
    // later... here: the count is simply gone.
    const auto protocol = make_counting_protocol(5);
    auto config = CountConfiguration(protocol->num_states());
    config.add(4, 1);  // the accumulated token
    config.add(0, 5);  // drained agents

    // Healthy population: adding one more 1-token would eventually alert.
    auto healthy = config;
    healthy.add(1, 1);
    EXPECT_TRUE(stably_computes_bool(*protocol, healthy, true));

    // Crash the token holder first, then the same 1-token arrives: the
    // count restarts from scratch and the verdict is (wrongly) false.
    auto crashed = config;
    crashed.remove(4, 1);
    crashed.add(1, 1);
    EXPECT_TRUE(stably_computes_bool(*protocol, crashed, false));
}

TEST(FaultTolerance, AlertEpidemicSurvivesArbitraryCrashes) {
    // Once one alert agent exists, killing any subset of the *other* agents
    // never changes the verdict: the epidemic phase is fault-tolerant.
    const auto protocol = make_counting_protocol(3);
    auto config = CountConfiguration(protocol->num_states());
    config.add(3, 1);  // one alert agent
    config.add(0, 4);
    config.add(1, 2);

    for (std::uint64_t dead_zeros = 0; dead_zeros <= 4; ++dead_zeros) {
        for (std::uint64_t dead_ones = 0; dead_ones <= 2; ++dead_ones) {
            auto crashed = config;
            crashed.remove(0, dead_zeros);
            crashed.remove(1, dead_ones);
            EXPECT_TRUE(stably_computes_bool(*protocol, crashed, true))
                << dead_zeros << "," << dead_ones;
        }
    }
}

TEST(FaultTolerance, KillingTheUniqueLeaderStallsForever) {
    // After election finishes, the leader is a single point of failure: the
    // all-follower configuration is silent with zero leaders, and no
    // interaction can ever mint a new one.
    const auto protocol = make_leader_election_protocol();
    auto elected = CountConfiguration(protocol->num_states());
    elected.add(1, 1);  // the leader
    elected.add(0, 5);  // followers

    auto crashed = elected;
    crashed.remove(1, 1);
    EXPECT_TRUE(crashed.is_silent(*protocol));
    EXPECT_EQ(count_leaders(crashed), 0u);
    const StableComputationResult result = analyze_stable_computation(*protocol, crashed);
    ASSERT_TRUE(result.single_valued());
    EXPECT_EQ(result.stable_signatures.front()[1], 0u);  // leaderless forever
}

TEST(FaultTolerance, ThresholdProtocolLeaderDeathFreezesOutputs) {
    // In the Lemma 5 threshold protocol, killing the unique leader freezes
    // every survivor's output at its last broadcast value - consistent but
    // permanently stale.
    const auto protocol = make_threshold_protocol({1}, 2);  // x0 < 2
    // Run to a stable configuration first.
    const auto initial = CountConfiguration::from_input_counts(*protocol, {4});
    RunOptions options;
    options.max_interactions = default_budget(4);
    options.seed = 3;
    const RunResult result = run_engine(SimulationEngine::kAgentArray, *protocol, initial, options);
    ASSERT_TRUE(result.consensus.has_value());
    ASSERT_EQ(*result.consensus, kOutputFalse);  // 4 >= 2

    // Identify and kill the leader (states with leader bit set: q / (2s+1)
    // >= 2 under the atom-protocol layout; here s = 3).
    const std::int64_t s = 3;
    auto crashed = result.final_configuration;
    bool removed = false;
    for (State q = 0; q < crashed.num_states() && !removed; ++q) {
        if (crashed.count(q) > 0 && q / (2 * s + 1) >= 2) {
            crashed.remove(q, 1);
            removed = true;
        }
    }
    ASSERT_TRUE(removed);
    // Leaderless survivors are silent: outputs can never change again.
    EXPECT_TRUE(crashed.is_silent(*protocol));
}

TEST(FaultTolerance, CrashesDoNotAffectSurvivorSemantics) {
    // The model-level claim: removing agents yields a *bona fide* population
    // of the same protocol - the analyzer accepts the crashed configuration
    // and all invariants still hold.
    const auto protocol = make_counting_protocol(3);
    auto config = CountConfiguration::from_input_counts(*protocol, {3, 4});
    config.remove(1, 2);  // two 1-agents die before interacting
    const StableComputationResult result = analyze_stable_computation(*protocol, config);
    EXPECT_TRUE(result.always_converges);
    // Only 2 ones survive: the correct surviving verdict is false.
    EXPECT_TRUE(stably_computes_bool(*protocol, config, false));
}

}  // namespace
}  // namespace popproto
