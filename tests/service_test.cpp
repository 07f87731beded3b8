// The service layer (src/service): DRR fair scheduling in deterministic
// virtual time, quantum-sliced execution bit-identical to direct runs,
// suspend -> evict -> fault-back bit-identity, graceful drain + restore,
// and the checkpoint spill store.  The wire protocol and socket transport
// are covered in service_wire_test.cpp.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_simulator.h"
#include "core/run_loop.h"
#include "core/simulator.h"
#include "service/checkpoint_store.h"
#include "service/json.h"
#include "service/registry.h"
#include "service/scheduler.h"
#include "service/session.h"

namespace popproto::service {
namespace {

// ---------------------------------------------------------------------------
// DrrScheduler: deterministic virtual time, no threads involved.

TEST(DrrScheduler, EverySessionDispatchedOncePerEpochAtEqualWeights) {
    DrrScheduler scheduler;
    for (int i = 0; i < 5; ++i) scheduler.add("s-" + std::to_string(i), 1);

    // Two full epochs: the dispatch order is a strict rotation.
    std::vector<std::string> order;
    for (int i = 0; i < 10; ++i) {
        auto entry = scheduler.take();
        ASSERT_TRUE(entry.has_value());
        order.push_back(entry->id);
        scheduler.give_back(*std::move(entry), /*still_runnable=*/true);
    }
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], "s-" + std::to_string(i % 5)) << i;
}

TEST(DrrScheduler, HugeSessionCannotStarveAHundredTinyOnes) {
    // The acceptance scenario in deterministic virtual time: one 2^20-agent
    // session with a practically unbounded backlog shares the ring with 100
    // tiny sessions needing 3 quanta each.  Every session must progress in
    // every epoch, and all tiny sessions must finish within 3 epochs.
    DrrScheduler scheduler;
    scheduler.add("huge", 1);
    std::map<std::string, int> remaining;
    for (int i = 0; i < 100; ++i) {
        const std::string id = "tiny-" + std::to_string(i);
        scheduler.add(id, 1);
        remaining[id] = 3;
    }

    std::uint64_t huge_quanta = 0;
    std::uint64_t dispatches = 0;
    std::map<std::string, std::uint64_t> last_seen_epoch;
    while (!remaining.empty()) {
        auto entry = scheduler.take();
        ASSERT_TRUE(entry.has_value());
        const std::uint64_t epoch = dispatches / 101;
        ++dispatches;
        ASSERT_LE(dispatches, 3u * 101u) << "tiny sessions did not finish in 3 epochs";
        if (entry->id == "huge") {
            ++huge_quanta;  // the huge run always has another quantum
            last_seen_epoch["huge"] = epoch;
            scheduler.give_back(*std::move(entry), true);
            continue;
        }
        last_seen_epoch[entry->id] = epoch;
        const bool more = --remaining[entry->id] > 0;
        if (!more) remaining.erase(entry->id);
        scheduler.give_back(*std::move(entry), more);
    }
    // The huge session was dispatched exactly once per full epoch — it
    // progressed every epoch and never monopolized the ring.
    EXPECT_EQ(huge_quanta, 3u);
}

TEST(DrrScheduler, WeightsGrantProportionalQuantaPerEpoch) {
    DrrScheduler scheduler;
    scheduler.add("heavy", 3);
    scheduler.add("light", 1);

    std::map<std::string, int> quanta;
    for (int i = 0; i < 8; ++i) {  // two epochs of 4 dispatches
        auto entry = scheduler.take();
        ASSERT_TRUE(entry.has_value());
        ++quanta[entry->id];
        scheduler.give_back(*std::move(entry), true);
    }
    EXPECT_EQ(quanta["heavy"], 6);
    EXPECT_EQ(quanta["light"], 2);
}

TEST(DrrScheduler, WeightedSessionKeepsItsTurnUntilTheDeficitIsSpent) {
    DrrScheduler scheduler;
    scheduler.add("a", 2);
    scheduler.add("b", 1);
    // a, a (deficit continues the turn), then b.
    std::vector<std::string> order;
    for (int i = 0; i < 3; ++i) {
        auto entry = scheduler.take();
        ASSERT_TRUE(entry.has_value());
        order.push_back(entry->id);
        scheduler.give_back(*std::move(entry), true);
    }
    EXPECT_EQ(order, (std::vector<std::string>{"a", "a", "b"}));
}

TEST(DrrScheduler, RemoveAndMembershipRules) {
    DrrScheduler scheduler;
    scheduler.add("a", 1);
    scheduler.add("b", 1);
    EXPECT_THROW(scheduler.add("a", 1), std::invalid_argument);  // already queued
    EXPECT_TRUE(scheduler.remove("a"));
    EXPECT_FALSE(scheduler.remove("a"));  // already gone
    EXPECT_EQ(scheduler.size(), 1u);

    auto entry = scheduler.take();
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->id, "b");
    EXPECT_FALSE(scheduler.remove("b"));  // dispatched entries are not in the ring
    scheduler.give_back(*std::move(entry), /*still_runnable=*/false);
    EXPECT_TRUE(scheduler.empty());
}

// ---------------------------------------------------------------------------
// CheckpointStore.

std::string fresh_dir(const std::string& name) {
    const auto path = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path);
    return path.string();
}

TEST(CheckpointStoreTest, RoundTripsCheckpointsAndManifests) {
    const std::string dir = fresh_dir("popproto_store_test");
    CheckpointStore store(dir);

    RunCheckpoint checkpoint;
    checkpoint.engine = ObservedEngine::kCountBatch;
    checkpoint.population = 10;
    checkpoint.num_states = 2;
    checkpoint.rng.words = {1, 2, 3, 4};
    checkpoint.interactions = 42;
    checkpoint.counts = {7, 3};

    EXPECT_FALSE(store.has_checkpoint("s-1"));
    store.save_checkpoint("s-1", checkpoint);
    EXPECT_TRUE(store.has_checkpoint("s-1"));
    EXPECT_EQ(store.load_checkpoint("s-1"), checkpoint);

    store.save_manifest("s-1", "{\"id\":\"s-1\"}");
    store.save_manifest("s-2", "{\"id\":\"s-2\"}");
    const auto manifests = store.list_manifests();
    ASSERT_EQ(manifests.size(), 2u);
    EXPECT_EQ(manifests[0].first, "s-1");
    EXPECT_EQ(manifests[0].second, "{\"id\":\"s-1\"}");
    EXPECT_EQ(manifests[1].first, "s-2");

    store.remove("s-1");
    EXPECT_FALSE(store.has_checkpoint("s-1"));
    EXPECT_EQ(store.list_manifests().size(), 1u);
    store.remove("s-1");  // missing files are not an error

    EXPECT_THROW(store.load_checkpoint("s-1"), std::runtime_error);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// RunRegistry.

/// RunOptions matching what the registry resolves from a spec, for direct
/// uninterrupted reference runs.
RunOptions direct_options(const SessionSpec& spec) {
    RunOptions options;
    options.seed = spec.seed;
    options.max_interactions = spec.budget;
    options.engine = parse_engine_name(spec.engine);
    return options;
}

RunResult direct_run(const SessionSpec& spec) {
    const auto protocol = build_protocol(spec);
    const auto initial = build_initial(*protocol, spec);
    if (spec.model != "uniform")
        return run_scenario(*protocol, initial, spec, direct_options(spec));
    return run_simulation(*protocol, initial, direct_options(spec));
}

/// The sliced run and the uninterrupted run must agree on every field a
/// SessionStatus exposes.
void expect_matches_direct(const SessionStatus& status, const RunResult& direct) {
    EXPECT_EQ(status.interactions, direct.interactions);
    EXPECT_EQ(status.effective_interactions, direct.effective_interactions);
    EXPECT_EQ(status.last_output_change, direct.last_output_change);
    ASSERT_TRUE(status.stop_reason.has_value());
    EXPECT_EQ(*status.stop_reason, direct.stop_reason);
    EXPECT_EQ(status.consensus.has_value(), direct.consensus.has_value());
    if (status.consensus && direct.consensus) {
        EXPECT_EQ(*status.consensus, *direct.consensus);
    }
}

/// Polls `status(id)` until `done` returns true or ~30 s elapse.
SessionStatus wait_for(RunRegistry& registry, const std::string& id,
                       const std::function<bool(const SessionStatus&)>& done) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
        const SessionStatus status = registry.status(id);
        if (done(status)) return status;
        if (std::chrono::steady_clock::now() > deadline) {
            ADD_FAILURE() << "timed out waiting on " << id << " (state "
                          << session_state_name(status.state) << ")";
            return status;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

bool is_terminal(const SessionStatus& status) {
    return status.state == SessionState::kDone || status.state == SessionState::kFailed ||
           status.state == SessionState::kCancelled;
}

TEST(RunRegistryTest, SubmitValidatesSpecsEagerly) {
    RegistryOptions options;
    options.spill_dir = fresh_dir("popproto_registry_validate");
    RunRegistry registry(options);

    SessionSpec empty_counts;
    empty_counts.counts = {};
    EXPECT_THROW(registry.submit(empty_counts), std::invalid_argument);

    SessionSpec too_small;
    too_small.counts = {1};
    EXPECT_THROW(registry.submit(too_small), std::invalid_argument);

    SessionSpec unknown_protocol;
    unknown_protocol.protocol = "nope";
    unknown_protocol.counts = {10, 2};
    EXPECT_THROW(registry.submit(unknown_protocol), std::invalid_argument);

    SessionSpec unknown_engine;
    unknown_engine.counts = {10, 2};
    unknown_engine.engine = "warp";
    EXPECT_THROW(registry.submit(unknown_engine), std::invalid_argument);

    SessionSpec bad_predicate;
    bad_predicate.protocol = "predicate";
    bad_predicate.predicate = "((";
    bad_predicate.counts = {10, 2};
    EXPECT_THROW(registry.submit(bad_predicate), std::invalid_argument);

    EXPECT_THROW(registry.status("s-404"), std::invalid_argument);
    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, QuantumSlicedRunMatchesTheDirectRun) {
    RegistryOptions options;
    options.workers = 2;
    options.spill_dir = fresh_dir("popproto_registry_sliced");
    RunRegistry registry(options);

    SessionSpec spec;
    spec.protocol = "counting";
    spec.threshold = 3;
    spec.counts = {40, 8};
    spec.seed = 11;
    spec.quantum = 97;  // coprime to everything: cuts land mid-everything
    spec.engine = "agent";

    const std::string id = registry.submit(spec);
    registry.wait_idle();
    const SessionStatus status = registry.status(id);
    EXPECT_EQ(status.state, SessionState::kDone);
    EXPECT_GT(status.quanta, 1u) << "quantum too large to exercise slicing";
    expect_matches_direct(status, direct_run(spec));
    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, SlicedBatchEngineCutsInsideNullSkipsMatchTheDirectRun) {
    // Token-sparse population on the batch engine: quantum boundaries fall
    // inside geometric null skips, the hardest slicing case.
    RegistryOptions options;
    options.spill_dir = fresh_dir("popproto_registry_batch");
    RunRegistry registry(options);

    SessionSpec spec;
    spec.protocol = "counting";
    spec.threshold = 2;
    spec.counts = {19998, 2};
    spec.seed = 3;
    spec.engine = "batch";
    spec.quantum = 10000;
    spec.budget = 400000;  // stop on budget: a deterministic endpoint

    const std::string id = registry.submit(spec);
    registry.wait_idle();
    const SessionStatus status = registry.status(id);
    EXPECT_EQ(status.state, SessionState::kDone);
    EXPECT_GT(status.quanta, 10u);
    expect_matches_direct(status, direct_run(spec));
    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, ScenarioSessionsSlicedThroughTheDaemonMatchDirectRuns) {
    // The acceptance property of the interaction-model layer at the service
    // level: a scenario session executed in daemon quanta must reproduce the
    // direct uninterrupted run_scenario result bit-for-bit.
    RegistryOptions options;
    options.spill_dir = fresh_dir("popproto_registry_scenario");
    RunRegistry registry(options);

    for (const std::string& model : {std::string("adversarial"), std::string("round_robin"),
                                     std::string("grid_mobility")}) {
        SessionSpec spec;
        spec.protocol = "epidemic";
        spec.counts = {63, 1};
        spec.seed = 29;
        spec.model = model;
        spec.budget = 20000;
        spec.quantum = 97;  // coprime: cuts land mid-epoch/mid-cycle/mid-walk

        const std::string id = registry.submit(spec);
        registry.wait_idle();
        const SessionStatus status = registry.status(id);
        EXPECT_EQ(status.state, SessionState::kDone) << model << ": " << status.error;
        EXPECT_GT(status.quanta, 1u) << model;
        expect_matches_direct(status, direct_run(spec));
    }
    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, SubmitRejectsInvalidScenarioSpecs) {
    RegistryOptions options;
    options.spill_dir = fresh_dir("popproto_registry_scenario_validate");
    RunRegistry registry(options);

    SessionSpec unknown_model;
    unknown_model.counts = {10, 2};
    unknown_model.model = "teleport";
    EXPECT_THROW(registry.submit(unknown_model), std::invalid_argument);

    SessionSpec wrong_engine;
    wrong_engine.counts = {10, 2};
    wrong_engine.model = "round_robin";
    wrong_engine.engine = "batch";
    EXPECT_THROW(registry.submit(wrong_engine), std::invalid_argument);

    SessionSpec no_phases;
    no_phases.counts = {10, 2};
    no_phases.model = "dynamic_graph";
    EXPECT_THROW(registry.submit(no_phases), std::invalid_argument);

    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, BoundedAdmissionQueueRejectsThenRecovers) {
    RegistryOptions options;
    options.workers = 1;
    options.max_queued = 2;
    options.spill_dir = fresh_dir("popproto_registry_admission");
    RunRegistry registry(options);

    // Two sessions with far-off budgets hold the backlog (queued + running)
    // at the bound for the whole test window.
    SessionSpec big;
    big.protocol = "epidemic";
    big.counts = {(std::uint64_t{1} << 20) - 1, 1};
    big.seed = 5;
    big.engine = "agent";
    big.budget = std::uint64_t{1} << 30;
    big.quantum = 1 << 16;
    const std::string first = registry.submit(big);
    const std::string second = registry.submit(big);

    try {
        registry.submit(big);
        FAIL() << "third submit should have hit the admission bound";
    } catch (const QueueFullError& error) {
        EXPECT_EQ(error.queued, 2u);
        EXPECT_EQ(error.max_queued, 2u);
        EXPECT_NE(std::string(error.what()).find("admission queue is full"),
                  std::string::npos);
    }

    // stats reports the live backlog and the bound.
    const std::string stats = registry.stats_json();
    EXPECT_NE(stats.find("\"queue_depth\":2"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"max_queued\":2"), std::string::npos) << stats;

    // Freeing a slot (cancel drains the session from the backlog) re-opens
    // admission.
    registry.cancel(first);
    wait_for(registry, first, is_terminal);
    EXPECT_NO_THROW(registry.submit(big));

    registry.cancel(second);
    for (const SessionStatus& status : registry.list())
        if (!is_terminal(status)) registry.cancel(status.id);
    registry.wait_idle();
    std::filesystem::remove_all(options.spill_dir);
}

/// A session big enough that suspend reliably lands mid-run: 128 quanta
/// of dense agent-array work.  The budget sits well below the epidemic's
/// ~16n silence point (measured ~16.8M interactions at n = 2^20), so the
/// run is budget-bound — it cannot converge early and shrink the window
/// the suspend/drain tests race against.
SessionSpec long_running_spec() {
    SessionSpec spec;
    spec.protocol = "epidemic";
    spec.counts = {(std::uint64_t{1} << 20) - 1, 1};
    spec.seed = 21;
    spec.engine = "agent";
    spec.quantum = 1 << 16;
    spec.budget = std::uint64_t{128} << 16;  // 8.4M: mid-epidemic, ~0.2 s
    return spec;
}

TEST(RunRegistryTest, SuspendEvictResumeIsBitIdentical) {
    RegistryOptions options;
    options.max_resident_suspended = 0;  // every suspend spills immediately
    options.spill_dir = fresh_dir("popproto_registry_evict");
    RunRegistry registry(options);

    const SessionSpec spec = long_running_spec();
    const std::string id = registry.submit(spec);

    // Let it execute at least one quantum, then suspend mid-run.
    wait_for(registry, id, [](const SessionStatus& s) { return s.quanta >= 2; });
    registry.suspend(id);
    const SessionStatus suspended = wait_for(registry, id, [](const SessionStatus& s) {
        return s.state == SessionState::kEvicted || is_terminal(s);
    });
    ASSERT_EQ(suspended.state, SessionState::kEvicted)
        << "run finished before the suspend landed; enlarge the budget";
    EXPECT_LT(suspended.interactions, spec.budget);
    EXPECT_TRUE(registry.store().has_checkpoint(id)) << "eviction did not spill";
    registry.suspend(id);  // idempotent on an already-suspended session

    // Resume faults the checkpoint back in; the completed run must be
    // bit-identical to the run that was never suspended.
    registry.resume(id);
    registry.wait_idle();
    const SessionStatus final_status = registry.status(id);
    EXPECT_EQ(final_status.state, SessionState::kDone);
    expect_matches_direct(final_status, direct_run(spec));
    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, NeverDispatchedSuspendEvictsAndResumesFresh) {
    RegistryOptions options;
    options.workers = 1;
    options.max_resident_suspended = 0;  // every suspend spills immediately
    options.spill_dir = fresh_dir("popproto_registry_evict_fresh");
    RunRegistry registry(options);

    // The one worker is held by a session whose single quantum is its
    // whole budget (seconds of agent-array work at n = 2^22, cancelled
    // below), so the session submitted next cannot be dispatched before it
    // is suspended.
    SessionSpec holder = long_running_spec();
    holder.counts = {(std::uint64_t{1} << 22) - 1, 1};
    holder.budget = std::uint64_t{1} << 27;
    holder.quantum = holder.budget;
    const std::string held = registry.submit(holder);
    wait_for(registry, held,
             [](const SessionStatus& s) { return s.state == SessionState::kRunning; });

    SessionSpec spec;
    spec.protocol = "epidemic";
    spec.counts = {255, 1};
    spec.seed = 3;
    spec.engine = "batch";
    spec.quantum = 200;
    const std::string id = registry.submit(spec);
    registry.suspend(id);
    const SessionStatus evicted = registry.status(id);
    EXPECT_EQ(evicted.state, SessionState::kEvicted);
    EXPECT_EQ(evicted.quanta, 0u);
    EXPECT_FALSE(registry.store().has_checkpoint(id)) << "nothing ran, nothing to spill";
    EXPECT_EQ(registry.status(held).state, SessionState::kRunning);

    // Resumed, it starts fresh and finishes exactly like a run that was
    // never suspended.
    registry.cancel(held);
    registry.resume(id);
    registry.wait_idle();
    const SessionStatus final_status = registry.status(id);
    EXPECT_EQ(final_status.state, SessionState::kDone);
    expect_matches_direct(final_status, direct_run(spec));
    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, CancelIsTerminalAndIdempotentWhereMeaningful) {
    RegistryOptions options;
    options.spill_dir = fresh_dir("popproto_registry_cancel");
    RunRegistry registry(options);

    const std::string id = registry.submit(long_running_spec());
    registry.cancel(id);
    const SessionStatus cancelled =
        wait_for(registry, id, [](const SessionStatus& s) { return is_terminal(s); });
    EXPECT_EQ(cancelled.state, SessionState::kCancelled);
    registry.cancel(id);  // cancelling a cancelled session stays cancelled
    EXPECT_THROW(registry.resume(id), std::invalid_argument);
    EXPECT_THROW(registry.suspend(id), std::invalid_argument);
    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, QueueDepthIsQueuedPlusRunningThroughTheLifecycle) {
    // stats' queue_depth (the max_queued admission backlog) must equal the
    // queued + running counts stats reports beside it, after every kind of
    // state change — including once sessions settle into terminal states,
    // which the registry keeps but which never count against the bound.
    RegistryOptions options;
    options.workers = 1;
    options.max_resident_suspended = 0;  // every suspend spills: suspend == evict
    options.spill_dir = fresh_dir("popproto_registry_queue_depth");
    RunRegistry registry(options);

    const auto queue_depth = [&](const char* step) {
        SCOPED_TRACE(step);
        const JsonValue stats = parse_json(registry.stats_json());
        const JsonValue* sessions = stats.find("sessions");
        EXPECT_NE(sessions, nullptr);
        if (sessions == nullptr) return std::uint64_t{0};
        const std::uint64_t depth = stats.find("queue_depth")->as_u64("queue_depth");
        EXPECT_EQ(depth, sessions->find("queued")->as_u64("queued") +
                             sessions->find("running")->as_u64("running"));
        return depth;
    };

    // Two long sessions exercise suspend/evict/resume/cancel mid-run; the
    // tiny one behind them runs to completion once they are cancelled.
    const std::string first = registry.submit(long_running_spec());
    const std::string second = registry.submit(long_running_spec());
    SessionSpec tiny;
    tiny.protocol = "epidemic";
    tiny.counts = {63, 1};
    tiny.engine = "agent";
    const std::string third = registry.submit(tiny);
    EXPECT_GE(queue_depth("submit"), 1u);

    wait_for(registry, first, [](const SessionStatus& s) { return s.quanta >= 1; });
    queue_depth("run");

    registry.suspend(second);
    queue_depth("suspend");
    const SessionStatus evicted = wait_for(registry, second, [](const SessionStatus& s) {
        return s.state == SessionState::kEvicted || is_terminal(s);
    });
    EXPECT_EQ(evicted.state, SessionState::kEvicted);
    queue_depth("evict");

    registry.resume(second);
    queue_depth("resume");

    registry.cancel(first);
    registry.cancel(second);
    wait_for(registry, first, is_terminal);
    wait_for(registry, second, is_terminal);
    queue_depth("cancel");

    registry.wait_idle();
    EXPECT_EQ(registry.status(third).state, SessionState::kDone);
    EXPECT_EQ(queue_depth("completion"), 0u);
    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, DrainThenRestoreLosesNothingAndStaysBitIdentical) {
    const std::string dir = fresh_dir("popproto_registry_drain");
    const SessionSpec long_spec = long_running_spec();

    SessionSpec quick_spec;
    quick_spec.protocol = "counting";
    quick_spec.threshold = 2;
    quick_spec.counts = {10, 2};
    quick_spec.seed = 5;
    quick_spec.engine = "agent";
    quick_spec.name = "quick";

    std::string long_id, quick_id;
    SessionStatus quick_before;
    {
        RegistryOptions options;
        options.spill_dir = dir;
        RunRegistry registry(options);
        long_id = registry.submit(long_spec);
        quick_id = registry.submit(quick_spec);
        wait_for(registry, quick_id, [](const SessionStatus& s) { return is_terminal(s); });
        wait_for(registry, long_id, [](const SessionStatus& s) { return s.quanta >= 2; });
        quick_before = registry.status(quick_id);
        registry.drain();
        const SessionStatus drained = registry.status(long_id);
        EXPECT_FALSE(is_terminal(drained)) << "long run finished before the drain";
        EXPECT_GT(drained.interactions, 0u);
    }  // daemon process "exits" here

    RegistryOptions options;
    options.spill_dir = dir;
    RunRegistry restarted(options);
    EXPECT_EQ(restarted.restore(), 2u);

    // The terminal session survived verbatim.
    const SessionStatus quick_after = restarted.status(quick_id);
    EXPECT_EQ(quick_after.state, SessionState::kDone);
    EXPECT_EQ(quick_after.name, "quick");
    EXPECT_EQ(quick_after.interactions, quick_before.interactions);
    EXPECT_EQ(quick_after.effective_interactions, quick_before.effective_interactions);

    // The in-flight session resumes across the restart and still matches
    // the run that was never interrupted.
    restarted.wait_idle();
    const SessionStatus final_status = restarted.status(long_id);
    EXPECT_EQ(final_status.state, SessionState::kDone);
    expect_matches_direct(final_status, direct_run(long_spec));

    // New submissions do not collide with restored ids.
    const std::string fresh = restarted.submit(quick_spec);
    EXPECT_NE(fresh, long_id);
    EXPECT_NE(fresh, quick_id);
    restarted.wait_idle();
    std::filesystem::remove_all(dir);
}

TEST(RunRegistryTest, HundredsOfConcurrentSessionsAllReachTerminalStates) {
    RegistryOptions options;
    options.workers = 4;
    options.spill_dir = fresh_dir("popproto_registry_many");
    RunRegistry registry(options);

    SessionSpec spec;
    spec.protocol = "epidemic";
    spec.counts = {63, 1};
    spec.engine = "agent";

    std::vector<std::string> ids;
    for (int i = 0; i < 300; ++i) {
        spec.seed = static_cast<std::uint64_t>(i) + 1;
        ids.push_back(registry.submit(spec));
    }
    registry.wait_idle();
    for (const std::string& id : ids) {
        const SessionStatus status = registry.status(id);
        EXPECT_EQ(status.state, SessionState::kDone) << id;
        EXPECT_TRUE(status.stop_reason.has_value()) << id;
    }
    EXPECT_EQ(registry.list().size(), 300u);
    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, FairSchedulingLetsTinyRunsFinishUnderAHugeRun) {
    // One 2^20-agent run shares two workers with 50 tiny runs; DRR
    // guarantees the tiny runs drain while the huge run is still going.
    RegistryOptions options;
    options.workers = 2;
    options.spill_dir = fresh_dir("popproto_registry_fair");
    RunRegistry registry(options);

    SessionSpec huge;
    huge.protocol = "counting";
    huge.threshold = 5;
    huge.counts = {(std::uint64_t{1} << 20) - 16, 16};
    huge.seed = 9;
    huge.budget = ~std::uint64_t{0};  // effectively unbounded
    const std::string huge_id = registry.submit(huge);

    SessionSpec tiny;
    tiny.protocol = "epidemic";
    tiny.counts = {31, 1};
    tiny.engine = "agent";
    std::vector<std::string> tiny_ids;
    for (int i = 0; i < 50; ++i) {
        tiny.seed = static_cast<std::uint64_t>(i) + 1;
        tiny_ids.push_back(registry.submit(tiny));
    }

    for (const std::string& id : tiny_ids) {
        const SessionStatus status =
            wait_for(registry, id, [](const SessionStatus& s) { return is_terminal(s); });
        EXPECT_EQ(status.state, SessionState::kDone) << id;
    }
    // The huge run progressed but is nowhere near done: nobody starved.
    const SessionStatus huge_status = registry.status(huge_id);
    EXPECT_FALSE(is_terminal(huge_status));
    EXPECT_GT(huge_status.quanta, 0u);
    registry.cancel(huge_id);
    registry.wait_idle();
    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, SubscribersReceiveSessionTaggedEventsThroughStop) {
    RegistryOptions options;
    options.spill_dir = fresh_dir("popproto_registry_events");
    RunRegistry registry(options);

    std::mutex lines_mutex;
    std::vector<std::string> lines;
    const LineSink sink = [&](const std::string& line) {
        const std::lock_guard<std::mutex> lock(lines_mutex);
        lines.push_back(line);
    };

    SessionSpec spec;
    spec.protocol = "counting";
    spec.threshold = 3;
    spec.counts = {40, 8};
    spec.seed = 11;
    spec.engine = "agent";
    spec.snapshot_every = 64;
    const std::string id = registry.submit(spec);
    registry.subscribe(id, /*token=*/1, sink);
    registry.wait_idle();
    wait_for(registry, id, [](const SessionStatus& s) { return is_terminal(s); });

    // Whether the subscriber attached before or after the run finished, it
    // must observe the session reaching a terminal state; live subscribers
    // see the JSONL trace with the session id spliced into every line.
    const auto saw = [&](const std::string& needle) {
        const std::lock_guard<std::mutex> lock(lines_mutex);
        for (const std::string& line : lines)
            if (line.find(needle) != std::string::npos) return true;
        return false;
    };
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!saw("\"event\":\"stop\"") && !saw("\"state\":\"done\"") &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(saw("\"event\":\"stop\"") || saw("\"state\":\"done\""));
    {
        const std::lock_guard<std::mutex> lock(lines_mutex);
        ASSERT_FALSE(lines.empty());
        for (const std::string& line : lines)
            EXPECT_EQ(line.rfind("{\"session\":\"" + id + "\",", 0), 0u) << line;
    }
    registry.unsubscribe(id, 1);

    // A late subscriber to a terminal session gets the synthetic state
    // event immediately.
    std::vector<std::string> late_lines;
    registry.subscribe(id, /*token=*/2,
                       [&](const std::string& line) { late_lines.push_back(line); });
    ASSERT_EQ(late_lines.size(), 1u);
    EXPECT_NE(late_lines[0].find("\"state\":\"done\""), std::string::npos) << late_lines[0];
    registry.unsubscribe(id, 2);
    std::filesystem::remove_all(options.spill_dir);
}

}  // namespace
}  // namespace popproto::service
