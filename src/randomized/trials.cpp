#include "randomized/trials.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/batch_simulator.h"
#include "core/require.h"

namespace popproto {

namespace {

/// Runs the trials into a per-trial record vector, fanning across
/// `threads` workers pulling trial indices from a shared counter.  Trial t
/// always uses seed base.seed + t and lands in slot t, so the outcome is
/// independent of scheduling.
std::vector<TrialRecord> run_all_trials(const TabulatedProtocol& protocol,
                                        const CountConfiguration& initial,
                                        const TrialOptions& options, unsigned threads) {
    std::vector<TrialRecord> results(options.trials);
    const auto run_one = [&](std::uint64_t trial) {
        RunOptions run_options = options.base;
        run_options.seed = options.base.seed + trial;
        if (options.observer_factory) run_options.observer = options.observer_factory(trial);
        const RunResult result = run_simulation(protocol, initial, run_options);
        results[trial] = {result.stop_reason,  result.consensus,
                          result.last_output_change, result.interactions,
                          result.effective_interactions, result.engine};
    };

    if (threads <= 1) {
        for (std::uint64_t trial = 0; trial < options.trials; ++trial) run_one(trial);
        return results;
    }

    std::atomic<std::uint64_t> next_trial{0};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
        workers.emplace_back([&] {
            try {
                for (std::uint64_t trial = next_trial.fetch_add(1);
                     trial < options.trials; trial = next_trial.fetch_add(1)) {
                    run_one(trial);
                }
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error) first_error = std::current_exception();
            }
        });
    }
    for (std::thread& worker : workers) worker.join();
    if (first_error) std::rethrow_exception(first_error);
    return results;
}

}  // namespace

TrialSummary measure_trials(const TabulatedProtocol& protocol,
                            const CountConfiguration& initial, const TrialOptions& options) {
    require(options.trials >= 1, "measure_trials: need at least one trial");
    // A RunTelemetryCollector instruments exactly one run at a time; fanned
    // trials would race on it.  Use observer_factory-style per-trial
    // instrumentation or single runs instead.
    require(options.base.telemetry == nullptr,
            "measure_trials: RunOptions::telemetry is per-run; trials reject a shared "
            "collector");
    // A paused trial has no convergence outcome to aggregate; quantum-sliced
    // execution belongs to the service daemon, not the trial harness.
    require(options.base.pause_after == 0 && options.base.stop_flag == nullptr,
            "measure_trials: pause_after/stop_flag would leave trials unfinished");

    unsigned threads = options.threads != 0 ? options.threads
                                            : std::max(1u, std::thread::hardware_concurrency());
    if (threads > options.trials) threads = static_cast<unsigned>(options.trials);

    std::vector<TrialRecord> results = run_all_trials(protocol, initial, options, threads);

    TrialSummary summary;
    summary.trials = options.trials;
    std::vector<std::uint64_t> convergence;
    convergence.reserve(options.trials);
    for (const TrialRecord& result : results) {
        switch (result.stop_reason) {
            case StopReason::kSilent:
                ++summary.silent;
                break;
            case StopReason::kStableOutputs:
                ++summary.stable_outputs;
                break;
            case StopReason::kBudget:
                ++summary.budget;
                break;
            case StopReason::kPaused:
                // Unreachable: pause options are rejected above.
                break;
        }
        if (result.consensus &&
            (!options.expected_consensus || *result.consensus == *options.expected_consensus)) {
            ++summary.correct;
        }
        convergence.push_back(result.last_output_change);
    }

    std::sort(convergence.begin(), convergence.end());
    summary.min_convergence = convergence.front();
    summary.max_convergence = convergence.back();
    // Lower median (see trials.h): the smaller middle value when the trial
    // count is even, so the statistic never exceeds the distribution
    // midpoint.
    summary.median_convergence = convergence[(convergence.size() - 1) / 2];

    double total = 0.0;
    for (std::uint64_t value : convergence) total += static_cast<double>(value);
    summary.mean_convergence = total / static_cast<double>(convergence.size());

    if (convergence.size() >= 2) {
        double sum_squares = 0.0;
        for (std::uint64_t value : convergence) {
            const double delta = static_cast<double>(value) - summary.mean_convergence;
            sum_squares += delta * delta;
        }
        summary.stddev_convergence =
            std::sqrt(sum_squares / static_cast<double>(convergence.size() - 1));
    }
    if (options.keep_records) summary.records = std::move(results);
    return summary;
}

}  // namespace popproto
