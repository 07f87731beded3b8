// Phase-adaptive dispatcher tests: switch-as-checkpoint bit-identity
// against a manually spliced run, checkpoint/resume cut on and around a
// switch boundary, dwell-based thrash suppression, entry-engine selection,
// and per-engine telemetry attribution.

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_simulator.h"
#include "core/configuration.h"
#include "core/engine_monitor.h"
#include "core/observer.h"
#include "core/run_loop.h"
#include "core/simulator.h"
#include "meanfield/fluid_assist.h"
#include "protocols/epidemic.h"
#include "telemetry/telemetry.h"

#include "test_util.h"

namespace popproto {
namespace {

using testutil::run_engine;

class CollectingSink final : public CheckpointSink {
public:
    void on_checkpoint(const RunCheckpoint& checkpoint) override {
        checkpoints.push_back(checkpoint);
    }
    std::vector<RunCheckpoint> checkpoints;
};

class SwitchRecorder final : public RunObserver {
public:
    void on_engine_switch(const EngineSwitchInfo& info) override { switches.push_back(info); }
    std::vector<EngineSwitchInfo> switches;
};

void expect_same_run(const RunResult& actual, const RunResult& expected) {
    EXPECT_EQ(actual.stop_reason, expected.stop_reason);
    EXPECT_EQ(actual.interactions, expected.interactions);
    EXPECT_EQ(actual.effective_interactions, expected.effective_interactions);
    EXPECT_EQ(actual.last_output_change, expected.last_output_change);
    EXPECT_EQ(actual.final_configuration, expected.final_configuration);
    EXPECT_EQ(actual.consensus, expected.consensus);
}

// A single-seed epidemic large enough for the default thresholds to switch
// twice (sparse -> dense -> sparse) but small enough for sub-second tests.
constexpr std::uint64_t kPopulation = 1 << 14;

RunOptions adaptive_options(std::uint64_t seed) {
    RunOptions options;
    options.seed = seed;
    return options;
}

// The core tentpole guarantee: an adaptive run is bit-identical to manually
// pausing a static run at each recorded switch index, transferring the
// checkpoint to the other engine, and resuming — the switch IS a
// checkpoint round-trip.
TEST(AdaptiveSimulator, BitIdenticalToManualSplice) {
    const auto protocol = make_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kPopulation - 1, 1});

    SwitchRecorder recorder;
    RunOptions options = adaptive_options(7);
    options.observer = &recorder;
    const RunResult adaptive = run_engine(SimulationEngine::kAdaptive, *protocol, initial, options);
    EXPECT_EQ(adaptive.engine, ObservedEngine::kAdaptive);
    EXPECT_EQ(adaptive.stop_reason, StopReason::kSilent);
    // Full epidemic: sparse tail on both ends of the dense transient.
    ASSERT_EQ(recorder.switches.size(), 2u);
    EXPECT_EQ(recorder.switches[0].from, ObservedEngine::kCountBatch);
    EXPECT_EQ(recorder.switches[0].to, ObservedEngine::kCollapsed);
    EXPECT_EQ(recorder.switches[1].from, ObservedEngine::kCollapsed);
    EXPECT_EQ(recorder.switches[1].to, ObservedEngine::kCountBatch);
    EXPECT_LT(recorder.switches[0].interactions, recorder.switches[1].interactions);
    EXPECT_EQ(recorder.switches[0].switch_index, 1u);
    EXPECT_EQ(recorder.switches[1].switch_index, 2u);

    // Manual splice: count-batch to the first switch index...
    CollectingSink sink;
    RunOptions manual;
    manual.seed = 7;
    manual.pause_after = recorder.switches[0].interactions;
    manual.checkpoint_sink = &sink;
    const RunResult leg1 = run_engine(SimulationEngine::kCountBatch, *protocol, initial, manual);
    ASSERT_EQ(leg1.stop_reason, StopReason::kPaused);
    ASSERT_FALSE(sink.checkpoints.empty());
    RunCheckpoint cut = sink.checkpoints.back();
    ASSERT_EQ(cut.interactions, recorder.switches[0].interactions);

    // ...transfer to collapsed, run to the second switch index...
    transfer_checkpoint_engine(cut, ObservedEngine::kCollapsed);
    sink.checkpoints.clear();
    manual.resume_from = &cut;
    manual.pause_after = recorder.switches[1].interactions;
    const RunResult leg2 = run_engine(SimulationEngine::kCollapsedBatch,
                                      *protocol, initial, manual);
    ASSERT_EQ(leg2.stop_reason, StopReason::kPaused);
    ASSERT_FALSE(sink.checkpoints.empty());
    RunCheckpoint cut2 = sink.checkpoints.back();
    ASSERT_EQ(cut2.interactions, recorder.switches[1].interactions);

    // ...transfer back to count-batch and finish.
    transfer_checkpoint_engine(cut2, ObservedEngine::kCountBatch);
    manual.resume_from = &cut2;
    manual.pause_after = 0;
    manual.checkpoint_sink = nullptr;
    const RunResult tail = run_engine(SimulationEngine::kCountBatch, *protocol, initial, manual);
    expect_same_run(tail, adaptive);
}

// Pausing exactly ON a switch boundary is transparent: a switch index is a
// natural loop top (the super-step ending there is never clamped — see the
// splice argument in adaptive_simulator.h), so a pause checkpoint cut there
// resumes bit-identically onto the *un*-checkpointed baseline, re-firing the
// pending switch on the first resumed loop top.
TEST(AdaptiveSimulator, ResumesBitIdenticallyAcrossSwitches) {
    const auto protocol = make_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kPopulation - 1, 1});

    SwitchRecorder recorder;
    RunOptions options = adaptive_options(11);
    options.observer = &recorder;
    const RunResult baseline = run_engine(SimulationEngine::kAdaptive, *protocol, initial, options);
    ASSERT_EQ(recorder.switches.size(), 2u);
    options.observer = nullptr;

    for (const EngineSwitchInfo& info : recorder.switches) {
        CollectingSink sink;
        RunOptions paused = options;
        paused.pause_after = info.interactions;
        paused.checkpoint_sink = &sink;
        const RunResult first = run_engine(SimulationEngine::kAdaptive, *protocol, initial, paused);
        ASSERT_EQ(first.stop_reason, StopReason::kPaused) << "cut at " << info.interactions;
        ASSERT_FALSE(sink.checkpoints.empty()) << "cut at " << info.interactions;
        // The pause checkpoint block runs before the monitor poll, so the
        // cut still carries the *pre*-switch engine.
        EXPECT_EQ(sink.checkpoints.back().engine, info.from);

        // Serialize through the text format, as a service restart would.
        const RunCheckpoint reloaded =
            checkpoint_from_string(checkpoint_to_string(sink.checkpoints.back()));
        EXPECT_TRUE(reloaded.adaptive);
        RunOptions resumed = options;
        resumed.resume_from = &reloaded;
        expect_same_run(run_engine(SimulationEngine::kAdaptive,
                                   *protocol, initial, resumed), baseline);
    }
}

// Cuts that do NOT land on a switch boundary follow the collapsed engine's
// checkpoint contract (tests/collapsed_simulator_test.cpp): boundaries clamp
// super-steps, so resume bit-identity is against a baseline with the *same*
// boundary schedule.  A periodic schedule straddles both switches, giving
// cuts strictly before the first and strictly after the last; every one
// resumes (with the schedule kept) onto the checkpointed baseline.
TEST(AdaptiveSimulator, PeriodicCheckpointsResumeThroughSwitches) {
    const auto protocol = make_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kPopulation - 1, 1});

    // Probe run: only to size the checkpoint period.
    RunOptions options = adaptive_options(3);
    const std::uint64_t run_length =
        run_engine(SimulationEngine::kAdaptive, *protocol, initial, options).interactions;

    CollectingSink sink;
    SwitchRecorder recorder;
    RunOptions observed = options;
    observed.checkpoint_every = run_length / 12 + 1;
    observed.checkpoint_sink = &sink;
    observed.observer = &recorder;
    const RunResult baseline = run_engine(SimulationEngine::kAdaptive,
                                          *protocol, initial, observed);
    ASSERT_EQ(baseline.stop_reason, StopReason::kSilent);
    ASSERT_GE(sink.checkpoints.size(), 8u);
    ASSERT_EQ(recorder.switches.size(), 2u);
    // The schedule straddles the switch window: at least one cut on each side.
    EXPECT_LT(sink.checkpoints.front().interactions, recorder.switches.front().interactions);
    EXPECT_GT(sink.checkpoints.back().interactions, recorder.switches.back().interactions);
    observed.observer = nullptr;

    for (const RunCheckpoint& checkpoint : sink.checkpoints) {
        EXPECT_TRUE(checkpoint.adaptive);
        CollectingSink resumed_sink;
        RunOptions resumed = observed;
        resumed.checkpoint_sink = &resumed_sink;
        resumed.resume_from = &checkpoint;
        expect_same_run(run_engine(SimulationEngine::kAdaptive,
                                   *protocol, initial, resumed), baseline);
    }
}

// Thrash regression: the dwell pins the minimum distance between switches
// even under pathologically tight hysteresis.  Driven at the monitor level
// with a density signal that flips across the whole band at every poll.
TEST(EngineSwitchMonitor, MinDwellSuppressesThrashing) {
    constexpr std::uint64_t kDwell = 50000;
    EngineSwitchMonitor monitor(kPopulation, ObservedEngine::kCountBatch, 13.0, 12.0, kDwell);
    ASSERT_EQ(monitor.min_dwell(), kDwell);

    // W at signal x: x = W / (n(n-1)) * E[L], so W = x * n(n-1) / E[L].
    const double n = static_cast<double>(kPopulation);
    const double per_unit_signal = n * (n - 1.0) / (1.2533141373155003 * std::sqrt(n));
    const auto dense = static_cast<std::uint64_t>(20.0 * per_unit_signal);
    const auto sparse = static_cast<std::uint64_t>(5.0 * per_unit_signal);
    ASSERT_GE(monitor.signal(dense), 13.0);
    ASSERT_LE(monitor.signal(sparse), 12.0);

    std::vector<std::uint64_t> switches;
    std::uint64_t polls = 0;
    while (monitor.next_eval() < 20 * kDwell) {
        const std::uint64_t t = monitor.next_eval();
        if (monitor.consider(t, ++polls % 2 == 0 ? dense : sparse)) {
            monitor.commit_switch(t);
            switches.push_back(t);
        }
    }
    // The band is crossed at every poll, so only the dwell holds switches
    // back: many fire, and no two closer than the dwell.
    EXPECT_GE(switches.size(), 10u);
    for (std::size_t k = 1; k < switches.size(); ++k)
        EXPECT_GE(switches[k] - switches[k - 1], kDwell)
            << "switches thrash faster than the dwell";

    // The default dwell is kMinDwellPeriods poll periods.
    const EngineSwitchMonitor defaults(kPopulation, ObservedEngine::kCountBatch);
    EXPECT_EQ(defaults.min_dwell(), kMinDwellPeriods * defaults.eval_period());
    EXPECT_EQ(defaults.enter_collapsed(), kEnterCollapsed);
    EXPECT_EQ(defaults.exit_collapsed(), kExitCollapsed);
}

// Entry engine comes from the initial density, and telemetry attributes
// every interaction to exactly one per-engine segment.
TEST(AdaptiveSimulator, EntryEngineAndSegmentAttribution) {
    const auto protocol = make_epidemic_protocol();

    telemetry::RunTelemetryCollector sparse_collector;
    RunOptions options = adaptive_options(9);
    options.telemetry = &sparse_collector;
    const auto sparse =
        CountConfiguration::from_input_counts(*protocol, {kPopulation - 1, 1});
    const RunResult sparse_run = run_engine(SimulationEngine::kAdaptive,
                                            *protocol, sparse, options);
    const telemetry::RunTelemetry& data = sparse_collector.telemetry();
    ASSERT_FALSE(data.engine_segments.empty());
    EXPECT_EQ(data.engine, "adaptive");
    EXPECT_EQ(data.engine_segments.front().engine, "count_batch");
    EXPECT_EQ(data.engine_switches, data.engine_segments.size() - 1);
    std::uint64_t attributed = 0;
    for (const auto& segment : data.engine_segments) attributed += segment.interactions;
    EXPECT_EQ(attributed, sparse_run.interactions);

    telemetry::RunTelemetryCollector dense_collector;
    options.telemetry = &dense_collector;
    const auto dense = CountConfiguration::from_input_counts(
        *protocol, {kPopulation / 2, kPopulation / 2});
    run_engine(SimulationEngine::kAdaptive, *protocol, dense, options);
    ASSERT_FALSE(dense_collector.telemetry().engine_segments.empty());
    EXPECT_EQ(dense_collector.telemetry().engine_segments.front().engine, "collapsed");
}

// A checkpoint taken by a *static* engine run can be adopted by the
// adaptive dispatcher mid-run (monitoring starts one period past the cut).
TEST(AdaptiveSimulator, AdoptsStaticCheckpoints) {
    const auto protocol = make_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kPopulation - 1, 1});

    CollectingSink sink;
    RunOptions fixed;
    fixed.seed = 13;
    fixed.pause_after = 3000;
    fixed.checkpoint_sink = &sink;
    ASSERT_EQ(run_engine(SimulationEngine::kCountBatch,
                         *protocol, initial, fixed).stop_reason, StopReason::kPaused);

    const RunCheckpoint cut = sink.checkpoints.back();
    EXPECT_FALSE(cut.adaptive);
    RunOptions adopt = adaptive_options(13);
    adopt.resume_from = &cut;
    const RunResult result = run_engine(SimulationEngine::kAdaptive, *protocol, initial, adopt);
    EXPECT_EQ(result.stop_reason, StopReason::kSilent);
    EXPECT_EQ(result.effective_interactions, kPopulation - 1);
    EXPECT_EQ(result.consensus, std::optional<bool>(true));
}

// Fluid assist (opt-in) replaces a dense transient with the mean-field
// solution: the run still reaches silence and consensus, but simulates far
// fewer interactions stochastically.  Sparse entries never invoke the hook,
// so assisted and unassisted sparse runs stay bit-identical.
TEST(AdaptiveSimulator, FluidAssistFastForwardsDenseEntries) {
    const auto protocol = make_epidemic_protocol();

    const auto dense = CountConfiguration::from_input_counts(
        *protocol, {kPopulation / 2, kPopulation / 2});
    RunOptions plain = adaptive_options(21);
    const RunResult exact = run_engine(SimulationEngine::kAdaptive, *protocol, dense, plain);

    RunOptions assisted = adaptive_options(21);
    assisted.fluid_assist = make_fluid_assist_hook();
    const RunResult fast = run_engine(SimulationEngine::kAdaptive, *protocol, dense, assisted);
    EXPECT_EQ(fast.stop_reason, StopReason::kSilent);
    EXPECT_EQ(fast.consensus, std::optional<bool>(true));
    // The transient was fast-forwarded: only the sparse tail is simulated.
    EXPECT_LT(fast.effective_interactions, exact.effective_interactions / 4);

    const auto sparse =
        CountConfiguration::from_input_counts(*protocol, {kPopulation - 1, 1});
    const RunResult sparse_plain = run_engine(SimulationEngine::kAdaptive,
                                              *protocol, sparse, plain);
    const RunResult sparse_assisted = run_engine(SimulationEngine::kAdaptive,
                                                 *protocol, sparse, assisted);
    expect_same_run(sparse_assisted, sparse_plain);
}

// transfer_checkpoint_engine validates its preconditions: only count-shaped
// serial checkpoints move between the two count engines.
TEST(AdaptiveSimulator, TransferRejectsForeignCheckpoints) {
    RunCheckpoint checkpoint;
    checkpoint.engine = ObservedEngine::kAgentArray;
    checkpoint.agent_states = {0, 1};
    EXPECT_THROW(transfer_checkpoint_engine(checkpoint, ObservedEngine::kCollapsed),
                 std::invalid_argument);

    checkpoint.engine = ObservedEngine::kCountBatch;
    checkpoint.agent_states.clear();
    checkpoint.counts = {1, 1};
    checkpoint.has_pending_skip = true;
    EXPECT_THROW(transfer_checkpoint_engine(checkpoint, ObservedEngine::kCollapsed),
                 std::invalid_argument);

    checkpoint.has_pending_skip = false;
    transfer_checkpoint_engine(checkpoint, ObservedEngine::kCollapsed);
    EXPECT_EQ(checkpoint.engine, ObservedEngine::kCollapsed);
}

}  // namespace
}  // namespace popproto
