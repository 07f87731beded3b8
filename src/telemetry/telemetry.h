// Runtime telemetry: the *performance* layer beneath the observe library.
//
// The observe library (src/observe) records *semantic* events — snapshots,
// output changes, stop reasons.  This library answers a different question:
// where does the wall time of a run actually go?  Per-phase timers over the
// run-loop kernel and the collapsed super-step pipeline, geometric
// null-skip accounting for the count-batch engine, and a live interaction
// counter that external threads (e.g. a progress reporter) may poll while
// the run executes.  Two exporters consume the result: a Chrome trace-event
// JSON writer (chrome_trace.h, loads in chrome://tracing and Perfetto) and
// a Prometheus-style text exposition (prometheus.h).
//
// Cost contract (mirrors core/observer.h):
//
//  * No collector attached (RunOptions::telemetry == nullptr, the default):
//    one predicted-not-taken branch per probe site — no clock reads, no
//    stores.  bench_observe's *TelemetryOff rows pin this at <= 2% against
//    the unobserved baselines.
//  * Telemetry never touches the RNG stream or the configuration: a run
//    with a collector attached is bit-identical (same interactions, same
//    RunResult) to one without, on every engine — proven by
//    tests/telemetry_test.cpp.
//
// Threading: a RunTelemetryCollector instruments exactly ONE run at a time
// (reset() between runs; measure_trials rejects a shared collector).  The
// driving thread owns phase stats and counters; the live interaction
// counter is a relaxed atomic so a progress thread may poll it
// concurrently.

#ifndef POPPROTO_TELEMETRY_TELEMETRY_H
#define POPPROTO_TELEMETRY_TELEMETRY_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace popproto::telemetry {

// ---------------------------------------------------------------------------
// Phases

/// The instrumented phases of a run.  kStepping is *derived* for
/// per-interaction engines (wall time minus every other top-level phase —
/// clocking each O(ns) interaction individually would dwarf the work);
/// super-step engines measure their stepping as kRunLengthDraw +
/// kSuperStepApply directly.  The k-prefixed sub-phases of the collapsed
/// pipeline nest inside kSuperStepApply and are excluded from the top-level
/// accounting (phase_is_nested).
enum class Phase : std::uint8_t {
    kStepping = 0,      ///< derived: interaction sampling + application
    kSilenceCheck,      ///< Stepper::is_silent under SilenceMode::kPeriodic
    kSnapshotDispatch,  ///< observer snapshot emission (run_loop)
    kRunLengthDraw,     ///< birthday-law super-step length proposal
    kSuperStepApply,    ///< one whole collapsed super-step
    kPairCascade,       ///< initiator/responder draws + row matching (nested)
    kDeltaMerge,        ///< aggregate count-delta application (nested)
    kCollisionFixup,    ///< the single colliding interaction (nested)
    kWRecompute,        ///< effective-pair (W) recount (nested)
    kEngineSwitch,      ///< adaptive dispatcher: checkpoint-shaped state transfer
    kCount
};

inline constexpr std::size_t kNumPhases = static_cast<std::size_t>(Phase::kCount);

/// Stable lowercase identifier ("stepping", "silence_check", ...).
const char* phase_name(Phase phase);

/// Nested phases run inside another timed phase and are excluded from the
/// derived kStepping top-level accounting.
bool phase_is_nested(Phase phase);

// ---------------------------------------------------------------------------
// Plain aggregates

/// Accumulated timing of one phase.
struct PhaseStat {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
};

/// One timed interval on the driving thread, in nanoseconds since the
/// collector epoch.
struct TraceSpan {
    Phase phase = Phase::kStepping;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
};

// ---------------------------------------------------------------------------
// The generic registry (named counters + log2 histograms)

/// A monotonically increasing named counter.  Relaxed atomic: increments
/// may come from any thread; totals are read after the run.
class Counter {
public:
    void add(std::uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// A log2-bucketed histogram of nonnegative values: bucket b counts samples
/// in [2^b, 2^(b+1)) (bucket 0 additionally holds the zeros).
class LogHistogram {
public:
    void record(std::uint64_t value);
    std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
    std::uint64_t bucket(std::size_t b) const {
        return buckets_[b].load(std::memory_order_relaxed);
    }
    static constexpr std::size_t kNumBuckets = 64;

private:
    std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

/// Read-only copies for exporters.
struct CounterSnapshot {
    std::string name;
    std::uint64_t value = 0;
};
struct HistogramSnapshot {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::array<std::uint64_t, LogHistogram::kNumBuckets> buckets{};
};

/// Named metric registry.  Registration is mutex-guarded and returns a
/// stable reference (deque-backed), so hot paths register once up front and
/// then increment lock-free; lookup of an existing name returns the same
/// instrument.  Usable standalone (e.g. process-wide counters for a future
/// simulation service) and embedded per-run by RunTelemetryCollector.
class TelemetryRegistry {
public:
    Counter& counter(std::string_view name);
    LogHistogram& histogram(std::string_view name);

    std::vector<CounterSnapshot> counters() const;
    std::vector<HistogramSnapshot> histograms() const;

    /// Drops every instrument (references obtained earlier dangle).
    void clear();

private:
    mutable std::mutex mutex_;
    std::deque<std::pair<std::string, Counter>> counters_;
    std::deque<std::pair<std::string, LogHistogram>> histograms_;
};

// ---------------------------------------------------------------------------
// RunTelemetry: the structured result attached to RunResult

/// Everything the collector measured about one run.  Attached to
/// RunResult::telemetry as a shared_ptr when RunOptions::telemetry was set;
/// the exporters (chrome_trace.h, prometheus.h) consume it as-is.
struct RunTelemetry {
    /// Schema version of the exported forms (chrome trace metadata,
    /// prometheus HELP text, JsonlTraceWriter's "telemetry" event).
    static constexpr int kSchemaVersion = 2;

    std::string engine;  ///< observed_engine_name of the executing engine
    std::uint64_t population = 0;

    std::uint64_t wall_ns = 0;
    std::uint64_t interactions = 0;
    std::uint64_t effective_interactions = 0;

    /// Indexed by Phase.  kStepping is derived (see Phase).
    std::array<PhaseStat, kNumPhases> phases{};

    // Super-step engine accounting.
    std::uint64_t super_steps = 0;
    std::uint64_t clamped_super_steps = 0;  ///< cut at a boundary, no collision
    std::uint64_t super_step_pairs = 0;     ///< collision-free pairs executed

    // Count-batch geometric-skip accounting.
    std::uint64_t geometric_skips = 0;
    std::uint64_t null_interactions_skipped = 0;

    /// Phase-adaptive dispatcher accounting: one entry per engine segment,
    /// in execution order, attributing the run's interactions and wall time
    /// to the concrete engine that executed them.  Empty for static engines.
    struct EngineSegment {
        std::string engine;  ///< observed_engine_name of the segment engine
        std::uint64_t interactions = 0;
        std::uint64_t wall_ns = 0;
    };
    std::vector<EngineSegment> engine_segments;
    std::uint64_t engine_switches = 0;

    /// Bounded span log for the Chrome trace exporter; spans beyond the
    /// collector's capacity are counted in spans_dropped, never silently
    /// lost.  Durations in the phase stats are exact regardless.
    std::vector<TraceSpan> spans;
    std::uint64_t spans_dropped = 0;

    /// Registry snapshot (skip/run-length histograms, ad-hoc counters).
    std::vector<CounterSnapshot> counters;
    std::vector<HistogramSnapshot> histograms;

    /// Human-readable multi-line summary (phase table + accounting).
    std::string to_string() const;
};

// ---------------------------------------------------------------------------
// The collector

/// Accumulates one run's telemetry.  Attach via RunOptions::telemetry; the
/// run-loop kernel and the engine steppers drive the probes; after the run,
/// RunResult::telemetry points at the finished RunTelemetry (also available
/// here via telemetry()).  Reusable across runs after reset().
class RunTelemetryCollector {
public:
    /// Capacity of the Chrome-trace span log (drops are counted in
    /// RunTelemetry::spans_dropped).
    static constexpr std::size_t kMaxSpans = std::size_t{1} << 15;

    RunTelemetryCollector();

    /// Nanoseconds since the collector epoch (set by begin_run).
    std::uint64_t now_ns() const {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }

    // --- probes -------------------------------------------------------------

    void begin_run(const char* engine, std::uint64_t population);
    void finish_run(std::uint64_t interactions, std::uint64_t effective_interactions);

    /// Adaptive-run scope (the phase-adaptive dispatcher).  The driver
    /// brackets the whole run with begin_adaptive_run / finish_adaptive_run;
    /// in between, each engine segment's run_loop still calls begin_run /
    /// finish_run, which the scope downgrades to *segment* boundaries: the
    /// epoch, phase stats, and counters accumulate across segments, and each
    /// inner finish_run closes one RunTelemetry::engine_segments entry
    /// instead of finalizing.  `start_interactions` is the resume point (nonzero when
    /// the adaptive run itself resumed from a checkpoint), so segment
    /// interaction attribution stays exact across suspends.
    void begin_adaptive_run(std::uint64_t population, std::uint64_t start_interactions);
    void finish_adaptive_run(std::uint64_t interactions,
                             std::uint64_t effective_interactions);

    void record_phase(Phase phase, std::uint64_t begin_ns, std::uint64_t end_ns);

    /// One geometric null-skip proposal of `length` executed interactions.
    void record_skip(std::uint64_t length);

    /// One super-step of `pairs` collision-free pairs; `clamped` when the
    /// kernel cut the proposed run at a boundary (no colliding interaction).
    void record_super_step(std::uint64_t pairs, bool clamped);

    /// Publishes the loop's interaction counter for concurrent polling.
    void publish_interactions(std::uint64_t interactions) {
        live_interactions_.store(interactions, std::memory_order_relaxed);
    }

    // --- concurrent-read API ----------------------------------------------

    /// The most recently published interaction index (any thread).
    std::uint64_t live_interactions() const {
        return live_interactions_.load(std::memory_order_relaxed);
    }

    /// Wall nanoseconds since begin_run (any thread).
    std::uint64_t live_wall_ns() const { return now_ns(); }

    // --- post-run API ------------------------------------------------------

    TelemetryRegistry& registry() { return registry_; }

    /// The finished telemetry (valid after finish_run; begin_run resets it).
    const RunTelemetry& telemetry() const { return *data_; }

    /// Shares the finished telemetry (what run_loop attaches to RunResult).
    std::shared_ptr<const RunTelemetry> share() const { return data_; }

    /// Clears everything for the next run (begin_run also does this).
    void reset();

private:
    std::chrono::steady_clock::time_point epoch_{};
    std::shared_ptr<RunTelemetry> data_;
    std::atomic<std::uint64_t> live_interactions_{0};
    TelemetryRegistry registry_;
    // The per-skip / per-super-step histograms, resolved once per run (the
    // registry lookup takes its mutex and scans the names).
    LogHistogram* skip_lengths_ = nullptr;
    LogHistogram* super_step_pairs_ = nullptr;
    bool running_ = false;
    // Adaptive-run scope state (see begin_adaptive_run).
    bool adaptive_scope_ = false;
    std::string segment_engine_;
    std::uint64_t segment_start_ns_ = 0;
    std::uint64_t segment_boundary_interactions_ = 0;
};

/// RAII phase timer: records one record_phase interval on destruction.
/// With a null collector (telemetry disabled) it performs no clock reads at
/// all.
class ScopedTimer {
public:
    ScopedTimer(RunTelemetryCollector* collector, Phase phase)
        : collector_(collector), phase_(phase) {
        if (collector_ != nullptr) begin_ns_ = collector_->now_ns();
    }
    ~ScopedTimer() {
        if (collector_ != nullptr)
            collector_->record_phase(phase_, begin_ns_, collector_->now_ns());
    }
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

private:
    RunTelemetryCollector* const collector_;
    const Phase phase_;
    std::uint64_t begin_ns_ = 0;
};

}  // namespace popproto::telemetry

#endif  // POPPROTO_TELEMETRY_TELEMETRY_H
