// Repeated-trial measurement harness.
//
// Experiments in this repository keep asking the same question: run a
// protocol T times from the same initial configuration, how long until the
// outputs settle and how often is the consensus correct?  This module
// packages that loop with summary statistics (mean/stddev/min/median/max of
// the convergence time and the correctness count), so benches, examples,
// and downstream studies share one audited implementation.  Callers that
// need distributions rather than summaries (e.g. convergence-time
// histograms) set TrialOptions::keep_records to retain the per-trial facts.

#ifndef POPPROTO_RANDOMIZED_TRIALS_H
#define POPPROTO_RANDOMIZED_TRIALS_H

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/configuration.h"
#include "core/simulator.h"
#include "core/tabulated_protocol.h"

namespace popproto {

/// The per-trial facts retained when TrialOptions::keep_records is set.
/// records[t] is trial t (seed base.seed + t) regardless of thread count.
struct TrialRecord {
    StopReason stop_reason = StopReason::kBudget;
    std::optional<Symbol> consensus;
    /// Empirical convergence time (RunResult::last_output_change).
    std::uint64_t last_output_change = 0;
    std::uint64_t interactions = 0;
    std::uint64_t effective_interactions = 0;
    /// Which engine executed the trial (RunResult::engine) — with
    /// base.engine = kAuto the resolution depends on population size, so
    /// the record keeps the receipt.
    ObservedEngine engine = ObservedEngine::kAgentArray;
};

/// Summary of one batch of identical-input runs.
struct TrialSummary {
    std::uint64_t trials = 0;
    /// Runs whose final consensus equalled `expected_consensus` (when given;
    /// otherwise runs that reached *any* consensus).
    std::uint64_t correct = 0;

    // Per-stop-reason counts; silent + stable_outputs + budget == trials.
    /// Runs that stopped silent (sound convergence certificates).
    std::uint64_t silent = 0;
    /// Runs stopped by the heuristic output-stability window.
    std::uint64_t stable_outputs = 0;
    /// Runs that exhausted max_interactions without another stopping rule
    /// firing — visible here so budget starvation cannot hide in a summary.
    std::uint64_t budget = 0;

    // Statistics of last_output_change across the runs.  The median is the
    // *lower* median: sorted[(trials - 1) / 2], i.e. the smaller of the two
    // middle values for even trial counts (a value that actually occurred,
    // and never above the distribution midpoint).
    double mean_convergence = 0.0;
    double stddev_convergence = 0.0;
    std::uint64_t min_convergence = 0;
    std::uint64_t median_convergence = 0;
    std::uint64_t max_convergence = 0;

    /// Per-trial records, in trial order; empty unless
    /// TrialOptions::keep_records was set.
    std::vector<TrialRecord> records;

    double correct_rate() const {
        return trials == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(trials);
    }
};

/// Batch options: `base` is used for every run with seeds
/// base.seed, base.seed + 1, ....
struct TrialOptions {
    RunOptions base;
    std::uint64_t trials = 20;
    /// When set, a run counts as correct only with this exact consensus.
    std::optional<Symbol> expected_consensus;
    /// Worker threads to fan the trials across; 0 selects
    /// std::thread::hardware_concurrency().  Trial t always runs with seed
    /// base.seed + t and results are aggregated in trial order, so the
    /// summary is bit-identical at every thread count.  A base.observer, if
    /// any, receives callbacks from every worker concurrently and must be
    /// thread-safe (e.g. MetricsCollector).  Trials are the parallel unit:
    /// each run itself is serial.
    unsigned threads = 1;
    /// Retain TrialSummary::records (one TrialRecord per trial).
    bool keep_records = false;
    /// When set, called once per trial (from the worker about to run it)
    /// to select that trial's observer, overriding base.observer; a
    /// nullptr return leaves the trial unobserved.  The callable itself
    /// must be thread-safe, but because each returned observer is only
    /// ever driven by its own trial, per-trial observers (e.g. one
    /// TraceRecorder per trial, for normalized-trajectory studies against
    /// the mean-field engine) need not be.
    std::function<RunObserver*(std::uint64_t trial)> observer_factory;
};

/// Runs `options.trials` simulations of `protocol` from `initial`, using
/// the engine selected by `options.base.engine`, across
/// `options.threads` workers.
TrialSummary measure_trials(const TabulatedProtocol& protocol,
                            const CountConfiguration& initial, const TrialOptions& options);

}  // namespace popproto

#endif  // POPPROTO_RANDOMIZED_TRIALS_H
