// The collapsed super-step engine (core/collapsed_simulator.h).
//
// Correctness is a *distributional* contract — the engine must sample final
// configurations from exactly the law of the uniform ordered-pair chain —
// so the centerpiece is an exact small-population check: a dynamic program
// over count vectors computes the true k-step distribution, and the
// empirical distribution of collapsed runs is held to it by chi-square,
// under several observation setups (unobserved, snapshot-clamped at every
// index, mixed, checkpoint-clamped).  Each setup exercises a different code
// path — full super-steps with collision resolution vs. boundary clamps —
// and all must agree with the same exact law.
//
// Pathwise guarantees are thinner by design (super-step boundaries shape
// the RNG stream), but checkpoint/resume *is* bit-identical against a
// baseline with the same checkpoint schedule, including cuts that land
// inside a super-step; that is tested here too, plus the engine-selection
// plumbing (run_simulation's kAuto size dispatch and RunResult::engine).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_simulator.h"
#include "core/observer.h"
#include "core/rng.h"
#include "core/run_loop.h"
#include "core/simulator.h"
#include "observe/trace_recorder.h"
#include "presburger/atom_protocols.h"
#include "protocols/counting.h"
#include "protocols/epidemic.h"
#include "test_util.h"

namespace popproto {
namespace {

using testutil::chi_square_gof;
using testutil::ChiSquareResult;
using testutil::run_engine;

// ---------------------------------------------------------------------------
// Exact k-step distribution of the uniform ordered-pair chain
// (testutil::exact_chain_distribution)

using CountVector = std::vector<std::uint64_t>;
using Distribution = std::map<CountVector, double>;

class CollectingSink final : public CheckpointSink {
public:
    void on_checkpoint(const RunCheckpoint& checkpoint) override {
        checkpoints.push_back(checkpoint);
    }
    std::vector<RunCheckpoint> checkpoints;
};

/// How the exact-law runs are observed; each shape clamps super-steps at a
/// different boundary pattern (see the file comment).
enum class ObservationSetup { kUnobserved, kSnapshotEveryOne, kSnapshotEveryTwo, kCheckpointed };

const char* setup_label(ObservationSetup setup) {
    switch (setup) {
        case ObservationSetup::kUnobserved: return "unobserved";
        case ObservationSetup::kSnapshotEveryOne: return "snapshot_every_1";
        case ObservationSetup::kSnapshotEveryTwo: return "snapshot_every_2";
        case ObservationSetup::kCheckpointed: return "checkpoint_every_2";
    }
    return "?";
}

void expect_matches_exact_law(const TabulatedProtocol& protocol, const CountVector& initial_counts,
                              std::uint64_t steps, ObservationSetup setup) {
    SCOPED_TRACE(setup_label(setup));
    const Distribution exact = testutil::exact_chain_distribution(protocol, initial_counts, steps);
    const auto initial = CountConfiguration::from_state_counts(initial_counts);

    constexpr std::uint64_t kRuns = 4000;
    std::map<CountVector, std::uint64_t> tally;
    for (std::uint64_t seed = 1; seed <= kRuns; ++seed) {
        RunOptions options;
        options.max_interactions = steps;
        options.seed = seed;
        TraceRecorder recorder;
        CollectingSink sink;
        switch (setup) {
            case ObservationSetup::kUnobserved: break;
            case ObservationSetup::kSnapshotEveryOne:
                options.observer = &recorder;
                options.snapshots = SnapshotSchedule::every(1);
                break;
            case ObservationSetup::kSnapshotEveryTwo:
                options.observer = &recorder;
                options.snapshots = SnapshotSchedule::every(2);
                break;
            case ObservationSetup::kCheckpointed:
                options.checkpoint_every = 2;
                options.checkpoint_sink = &sink;
                break;
        }
        const RunResult result = run_engine(SimulationEngine::kCollapsedBatch,
                                            protocol, initial, options);
        // A silent stop before the budget freezes the configuration, so the
        // final counts still equal the configuration at index `steps`.
        ++tally[result.final_configuration.counts()];
    }

    // Every reachable configuration is in the exact support.
    std::vector<std::uint64_t> observed;
    std::vector<double> expected;
    for (const auto& [config, prob] : exact) {
        const auto it = tally.find(config);
        observed.push_back(it == tally.end() ? 0 : it->second);
        expected.push_back(prob);
        if (it != tally.end()) tally.erase(it);
    }
    EXPECT_TRUE(tally.empty()) << tally.size() << " configurations outside the exact support";

    const ChiSquareResult gof = chi_square_gof(observed, expected, kRuns);
    EXPECT_TRUE(gof.pass) << gof.summary();
}

TEST(CollapsedExactLaw, EpidemicMatchesEnumeratedDistribution) {
    // n = 5: the survival table has two entries, so nearly every unclamped
    // super-step executes a collision — the collision resolver and the
    // batch assignment are both load-bearing here.
    const auto protocol = make_epidemic_protocol();
    const CountVector initial = {4, 1};
    for (const ObservationSetup setup :
         {ObservationSetup::kUnobserved, ObservationSetup::kSnapshotEveryOne,
          ObservationSetup::kSnapshotEveryTwo, ObservationSetup::kCheckpointed}) {
        expect_matches_exact_law(*protocol, initial, /*steps=*/6, setup);
    }
}

TEST(CollapsedExactLaw, MajorityMatchesEnumeratedDistribution) {
    // Multi-state protocol ([x_0 - x_1 < 0] threshold atom): the
    // state-pair matrix cascade runs over more than two states.
    const auto protocol = make_threshold_protocol({1, -1}, 0);
    const auto config = CountConfiguration::from_input_counts(*protocol, {2, 3});
    for (const ObservationSetup setup :
         {ObservationSetup::kUnobserved, ObservationSetup::kSnapshotEveryOne,
          ObservationSetup::kCheckpointed}) {
        expect_matches_exact_law(*protocol, config.counts(), /*steps=*/5, setup);
    }
}

// ---------------------------------------------------------------------------
// Checkpoint / resume

void expect_same_run(const RunResult& actual, const RunResult& expected) {
    EXPECT_EQ(actual.stop_reason, expected.stop_reason);
    EXPECT_EQ(actual.interactions, expected.interactions);
    EXPECT_EQ(actual.effective_interactions, expected.effective_interactions);
    EXPECT_EQ(actual.last_output_change, expected.last_output_change);
    EXPECT_EQ(actual.final_configuration, expected.final_configuration);
    EXPECT_EQ(actual.consensus, expected.consensus);
    EXPECT_EQ(actual.engine, expected.engine);
}

TEST(CollapsedCheckpointResume, BitIdenticalAgainstCheckpointedBaseline) {
    // Unlike the per-interaction engines, the collapsed baseline must
    // itself be checkpointed: checkpoint boundaries clamp super-steps, so
    // only a resumed run with the *same* boundary sequence replays the
    // stream bit for bit (run_loop_test's harness, which compares against
    // an un-checkpointed baseline, intentionally does not apply).  With
    // checkpoint_every = 7 and E[L] ~ 0.63 sqrt(64) ~ 5, most boundaries
    // cut a proposed run mid-flight, exercising the clamped path.
    const auto protocol = make_counting_protocol(3);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {57, 7});
    RunOptions options;
    options.seed = 11;
    options.max_interactions = 600;

    CollectingSink sink;
    options.checkpoint_every = 7;
    options.checkpoint_sink = &sink;
    const RunResult baseline = run_engine(SimulationEngine::kCollapsedBatch,
                                          *protocol, initial, options);
    ASSERT_FALSE(sink.checkpoints.empty());

    for (const RunCheckpoint& checkpoint : sink.checkpoints) {
        EXPECT_EQ(checkpoint.interactions % 7, 0u);
        // Resume from the text round-trip, exactly as a CLI would.
        const RunCheckpoint reloaded = checkpoint_from_string(checkpoint_to_string(checkpoint));
        CollectingSink resumed_sink;
        RunOptions resumed = options;
        resumed.checkpoint_sink = &resumed_sink;
        resumed.resume_from = &reloaded;
        expect_same_run(run_engine(SimulationEngine::kCollapsedBatch,
                                   *protocol, initial, resumed), baseline);

        // The resumed run's checkpoints must be the exact suffix of the
        // baseline's — same cuts, same RNG positions, same counts.
        std::vector<RunCheckpoint> expected_suffix;
        for (const RunCheckpoint& later : sink.checkpoints)
            if (later.interactions > checkpoint.interactions) expected_suffix.push_back(later);
        EXPECT_EQ(resumed_sink.checkpoints, expected_suffix)
            << "resumed from cut at " << checkpoint.interactions;
    }
}

TEST(CollapsedCheckpointResume, ResumesAVersionOneCheckpointBitIdentically) {
    // A version-1 checkpoint spilled by an earlier build of the collapsed
    // engine: the cut at interaction 196 of the run below.  Resuming it
    // must replay the rest of that run exactly, so checkpoints written by
    // older builds keep their meaning.
    const std::string v1_text =
        "popproto-checkpoint v1\n"
        "engine collapsed\n"
        "population 64\n"
        "num_states 4\n"
        "rng 5202776245443608303 16377158582312865794 7359317428617866804 "
        "15205119416108760729\n"
        "interactions 196\n"
        "effective 1\n"
        "last_output_change 0\n"
        "next_silence_check 1024\n"
        "changed_since_check 1\n"
        "pending_skip 0 0\n"
        "counts 4 58 5 1 0\n"
        "end\n";
    const auto protocol = make_counting_protocol(3);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {57, 7});
    RunOptions options;
    options.seed = 11;
    options.max_interactions = 600;
    CollectingSink sink;
    options.checkpoint_every = 7;
    options.checkpoint_sink = &sink;
    const RunResult baseline = run_engine(SimulationEngine::kCollapsedBatch,
                                          *protocol, initial, options);

    const RunCheckpoint checkpoint = checkpoint_from_string(v1_text);
    ASSERT_EQ(std::count(sink.checkpoints.begin(), sink.checkpoints.end(), checkpoint), 1);
    RunOptions resumed = options;
    resumed.resume_from = &checkpoint;
    const RunResult result = run_engine(SimulationEngine::kCollapsedBatch,
                                        *protocol, initial, resumed);
    expect_same_run(result, baseline);
    // The values the writing build reported for the uninterrupted run.
    EXPECT_EQ(result.stop_reason, StopReason::kSilent);
    EXPECT_EQ(result.interactions, 385u);
    EXPECT_EQ(result.effective_interactions, 64u);
    EXPECT_EQ(result.last_output_change, 385u);
    EXPECT_EQ(result.final_configuration.counts(), (CountVector{0, 0, 0, 64}));
}

TEST(CollapsedCheckpointResume, RejectsForeignCheckpoints) {
    const auto protocol = make_counting_protocol(2);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {10, 2});
    RunOptions options;
    options.seed = 2;
    CollectingSink sink;
    options.checkpoint_every = 20;
    options.checkpoint_sink = &sink;
    run_engine(SimulationEngine::kCountBatch, *protocol, initial, options);
    ASSERT_FALSE(sink.checkpoints.empty());

    RunOptions resume;
    resume.resume_from = &sink.checkpoints.front();
    EXPECT_THROW(run_engine(SimulationEngine::kCollapsedBatch,
                            *protocol, initial, resume), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Silence, validation, and accounting

TEST(CollapsedSimulator, EpidemicRunsSilentWithExactEffectiveCount) {
    // Every effective epidemic interaction infects exactly one susceptible,
    // so the aggregate effective count across batches and collisions must
    // come out to the initial susceptible count on the nose.
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {25, 5});
    RunOptions options;
    options.seed = 5;
    const RunResult result = run_engine(SimulationEngine::kCollapsedBatch,
                                        *protocol, initial, options);
    EXPECT_EQ(result.stop_reason, StopReason::kSilent);
    EXPECT_EQ(result.final_configuration.counts(), (CountVector{0, 30}));
    EXPECT_EQ(result.effective_interactions, 25u);
    ASSERT_TRUE(result.consensus.has_value());
    EXPECT_EQ(*result.consensus, 1u);
}

TEST(CollapsedSimulator, InitiallySilentConfigurationStopsAtZero) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {0, 30});
    RunOptions options;
    options.seed = 9;
    const RunResult result = run_engine(SimulationEngine::kCollapsedBatch,
                                        *protocol, initial, options);
    EXPECT_EQ(result.stop_reason, StopReason::kSilent);
    EXPECT_EQ(result.interactions, 0u);
    EXPECT_EQ(result.effective_interactions, 0u);
}

TEST(CollapsedSimulator, ValidatesInputs) {
    const auto protocol = make_epidemic_protocol();
    RunOptions options;
    // Population of one.
    EXPECT_THROW(run_engine(SimulationEngine::kCollapsedBatch, *protocol,
                            CountConfiguration::from_input_counts(*protocol, {1, 0}), options),
                 std::invalid_argument);
    // Configuration from a different protocol shape.
    const auto counting = make_counting_protocol(4);
    EXPECT_THROW(
        run_engine(SimulationEngine::kCollapsedBatch, *protocol,
                   CountConfiguration::from_input_counts(*counting, {5, 5}), options),
        std::invalid_argument);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {5, 5});
    EXPECT_NO_THROW(run_engine(SimulationEngine::kCollapsedBatch, *protocol, initial, options));
}

TEST(CollapsedSimulator, EngineNameRoundTrips) {
    EXPECT_STREQ(observed_engine_name(ObservedEngine::kCollapsed), "collapsed");
    ObservedEngine parsed = ObservedEngine::kAgentArray;
    ASSERT_TRUE(observed_engine_from_name("collapsed", parsed));
    EXPECT_EQ(parsed, ObservedEngine::kCollapsed);
}

// ---------------------------------------------------------------------------
// Golden streams: exact values pinned for fixed seeds.  The distributional
// tests above would pass for any correct sampler; these fail on any change
// to the arithmetic behind the draws (the hypergeometric log-pmf grouping,
// the super-step delta merge, the W recount), so every such change is a
// visible decision rather than a silent change of every seeded run.

TEST(GoldenStreams, HypergeometricDraws) {
    // Inside the log-factorial table (first two) and past it, on the
    // lgamma fallback (last two).
    struct Case {
        std::uint64_t successes, failures, draws;
    };
    const Case cases[] = {{1000, 3000, 500},
                          {40, 17, 23},
                          {3000000000, 5000000000, 1000000},
                          {1 << 20, 1 << 21, 1 << 12}};
    const std::vector<std::uint64_t> expected = {120, 16, 374891, 1406, 140, 13,
                                                 374673, 1361, 124, 17, 373929, 1401};
    Rng rng(20260419);
    std::vector<std::uint64_t> drawn;
    while (drawn.size() < expected.size())
        for (const Case& c : cases)
            drawn.push_back(rng.hypergeometric(c.successes, c.failures, c.draws));
    EXPECT_EQ(drawn, expected);
}

TEST(GoldenStreams, CollapsedEpidemicRun) {
    const auto protocol = make_epidemic_protocol();
    constexpr std::uint64_t n = std::uint64_t{1} << 16;
    const auto initial = CountConfiguration::from_state_counts({n - 1, 1});
    const std::pair<std::uint64_t, std::uint64_t> expected[] = {{7, 799025}, {8, 792171}};
    for (const auto& [seed, interactions] : expected) {
        RunOptions options;
        options.seed = seed;
        const RunResult result =
            run_engine(SimulationEngine::kCollapsedBatch, *protocol, initial, options);
        EXPECT_EQ(result.stop_reason, StopReason::kSilent) << "seed " << seed;
        EXPECT_EQ(result.interactions, interactions) << "seed " << seed;
        EXPECT_EQ(result.effective_interactions, n - 1) << "seed " << seed;
    }
}

// ---------------------------------------------------------------------------
// run_simulation dispatch (RunResult::engine reports the executed engine)

TEST(RunSimulationDispatch, AutoSelectsBySize) {
    const auto protocol = make_epidemic_protocol();
    RunOptions options;
    options.seed = 3;
    options.max_interactions = 200;

    const auto run_auto = [&](std::uint64_t susceptible) {
        const auto initial =
            CountConfiguration::from_input_counts(*protocol, {susceptible, 1});
        return run_simulation(*protocol, initial, options).engine;
    };

    // Below the count-batch threshold: the reference agent array.
    EXPECT_EQ(run_auto(100), ObservedEngine::kAgentArray);
    EXPECT_EQ(run_auto(kAutoCountBatchThreshold - 2), ObservedEngine::kAgentArray);
    // At and above it: count-batch, up to the collapsed threshold.
    EXPECT_EQ(run_auto(kAutoCountBatchThreshold - 1), ObservedEngine::kCountBatch);
    EXPECT_EQ(run_auto(kAutoCollapsedThreshold - 2), ObservedEngine::kCountBatch);
    // At and above the collapsed threshold: the phase-adaptive dispatcher
    // (which picks collapsed or count-batch segments by density).
    EXPECT_EQ(run_auto(kAutoCollapsedThreshold - 1), ObservedEngine::kAdaptive);
}

TEST(RunSimulationDispatch, PinnedEnginesAreHonoredAtAnySize) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {60, 4});
    RunOptions options;
    options.seed = 3;
    options.max_interactions = 100;

    options.engine = SimulationEngine::kAgentArray;
    EXPECT_EQ(run_simulation(*protocol, initial, options).engine, ObservedEngine::kAgentArray);
    options.engine = SimulationEngine::kCountBatch;
    EXPECT_EQ(run_simulation(*protocol, initial, options).engine, ObservedEngine::kCountBatch);
    options.engine = SimulationEngine::kCollapsedBatch;
    EXPECT_EQ(run_simulation(*protocol, initial, options).engine, ObservedEngine::kCollapsed);
    options.engine = SimulationEngine::kAdaptive;
    EXPECT_EQ(run_simulation(*protocol, initial, options).engine, ObservedEngine::kAdaptive);
}

// kAuto with resume_from set continues on the engine that wrote the
// checkpoint, whatever the population size would select: each run is cut at
// its middle checkpoint and resumed under kAuto with the same checkpoint
// schedule (collapsed segments clamp super-steps at checkpoint boundaries),
// and must finish bit-identically to the pinned run.
TEST(RunSimulationDispatch, AutoResumeFollowsTheCheckpointWriter) {
    const auto protocol = make_epidemic_protocol();
    struct Case {
        SimulationEngine writer;
        std::uint64_t population;
        ObservedEngine reported;
    };
    const Case cases[] = {
        // n = 256 alone selects the agent array, n = 2^13 the count-batch
        // engine, and n = 2^14 the count-batch engine again.
        {SimulationEngine::kCountBatch, 256, ObservedEngine::kCountBatch},
        {SimulationEngine::kAgentArray, std::uint64_t{1} << 13, ObservedEngine::kAgentArray},
        {SimulationEngine::kAdaptive, std::uint64_t{1} << 14, ObservedEngine::kAdaptive},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(observed_engine_name(c.reported));
        const auto initial =
            CountConfiguration::from_input_counts(*protocol, {c.population - 1, 1});
        CollectingSink sink;
        RunOptions options;
        options.seed = 21;
        options.checkpoint_every = c.population;
        options.checkpoint_sink = &sink;
        const RunResult pinned = run_engine(c.writer, *protocol, initial, options);
        ASSERT_GE(sink.checkpoints.size(), 2u);
        const RunCheckpoint cut = sink.checkpoints[sink.checkpoints.size() / 2];
        EXPECT_EQ(cut.adaptive, c.writer == SimulationEngine::kAdaptive);

        CollectingSink resumed_sink;
        options.engine = SimulationEngine::kAuto;
        options.checkpoint_sink = &resumed_sink;
        options.resume_from = &cut;
        const RunResult resumed = run_simulation(*protocol, initial, options);
        EXPECT_EQ(resumed.engine, c.reported);
        EXPECT_EQ(pinned.engine, c.reported);
        EXPECT_EQ(resumed.stop_reason, pinned.stop_reason);
        EXPECT_EQ(resumed.interactions, pinned.interactions);
        EXPECT_EQ(resumed.effective_interactions, pinned.effective_interactions);
        EXPECT_EQ(resumed.last_output_change, pinned.last_output_change);
        EXPECT_EQ(resumed.final_configuration, pinned.final_configuration);
    }

    // A weighted checkpoint is refused, naming the entry point that resumes it.
    const auto initial = CountConfiguration::from_input_counts(*protocol, {63, 1});
    const AgentConfiguration agents = AgentConfiguration::from_counts(initial);
    CollectingSink sink;
    RunOptions options;
    options.seed = 5;
    options.checkpoint_every = 64;
    options.checkpoint_sink = &sink;
    simulate_weighted(*protocol, agents, std::vector<double>(64, 1.0), options);
    ASSERT_FALSE(sink.checkpoints.empty());
    const RunCheckpoint weighted = sink.checkpoints.front();
    options.checkpoint_sink = nullptr;
    options.checkpoint_every = 0;
    options.resume_from = &weighted;
    try {
        run_simulation(*protocol, initial, options);
        ADD_FAILURE() << "a weighted checkpoint resumed under run_simulation";
    } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("simulate_weighted"), std::string::npos)
            << error.what();
    }
}

}  // namespace
}  // namespace popproto
