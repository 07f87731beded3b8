#include "telemetry/telemetry.h"

#include <bit>
#include <iomanip>
#include <sstream>

namespace popproto::telemetry {

const char* phase_name(Phase phase) {
    switch (phase) {
        case Phase::kStepping:
            return "stepping";
        case Phase::kSilenceCheck:
            return "silence_check";
        case Phase::kSnapshotDispatch:
            return "snapshot_dispatch";
        case Phase::kRunLengthDraw:
            return "run_length_draw";
        case Phase::kSuperStepApply:
            return "super_step_apply";
        case Phase::kPairCascade:
            return "pair_cascade";
        case Phase::kDeltaMerge:
            return "delta_merge";
        case Phase::kCollisionFixup:
            return "collision_fixup";
        case Phase::kWRecompute:
            return "w_recompute";
        case Phase::kEngineSwitch:
            return "engine_switch";
        case Phase::kCount:
            break;
    }
    return "unknown";
}

bool phase_is_nested(Phase phase) {
    switch (phase) {
        case Phase::kPairCascade:
        case Phase::kDeltaMerge:
        case Phase::kCollisionFixup:
        case Phase::kWRecompute:
            return true;
        default:
            return false;
    }
}

void LogHistogram::record(std::uint64_t value) {
    // bucket = floor(log2(value)), with the zeros folded into bucket 0.
    const int bucket = value == 0 ? 0 : std::bit_width(value) - 1;
    buckets_[static_cast<std::size_t>(bucket)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
}

Counter& TelemetryRegistry::counter(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [existing, instrument] : counters_)
        if (existing == name) return instrument;
    counters_.emplace_back(std::piecewise_construct,
                           std::forward_as_tuple(std::string(name)), std::forward_as_tuple());
    return counters_.back().second;
}

LogHistogram& TelemetryRegistry::histogram(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [existing, instrument] : histograms_)
        if (existing == name) return instrument;
    histograms_.emplace_back(std::piecewise_construct,
                             std::forward_as_tuple(std::string(name)),
                             std::forward_as_tuple());
    return histograms_.back().second;
}

std::vector<CounterSnapshot> TelemetryRegistry::counters() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<CounterSnapshot> out;
    out.reserve(counters_.size());
    for (const auto& [name, instrument] : counters_)
        out.push_back({name, instrument.value()});
    return out;
}

std::vector<HistogramSnapshot> TelemetryRegistry::histograms() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<HistogramSnapshot> out;
    out.reserve(histograms_.size());
    for (const auto& [name, instrument] : histograms_) {
        HistogramSnapshot snapshot;
        snapshot.name = name;
        snapshot.count = instrument.count();
        snapshot.sum = instrument.sum();
        for (std::size_t b = 0; b < LogHistogram::kNumBuckets; ++b)
            snapshot.buckets[b] = instrument.bucket(b);
        out.push_back(std::move(snapshot));
    }
    return out;
}

void TelemetryRegistry::clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    histograms_.clear();
}

RunTelemetryCollector::RunTelemetryCollector() : data_(std::make_shared<RunTelemetry>()) {}

void RunTelemetryCollector::reset() {
    // A fresh RunTelemetry rather than clearing in place: the previous run's
    // result may still be shared via RunResult::telemetry.
    data_ = std::make_shared<RunTelemetry>();
    registry_.clear();
    skip_lengths_ = nullptr;
    super_step_pairs_ = nullptr;
    live_interactions_.store(0, std::memory_order_relaxed);
    running_ = false;
    adaptive_scope_ = false;
    segment_engine_.clear();
    segment_start_ns_ = 0;
    segment_boundary_interactions_ = 0;
}

void RunTelemetryCollector::begin_run(const char* engine, std::uint64_t population) {
    if (adaptive_scope_ && running_) {
        // Segment boundary inside an adaptive run: keep the epoch, phase
        // stats, and counters accumulating; just note which concrete engine
        // the next stretch of interactions executes on.
        segment_engine_ = engine;
        segment_start_ns_ = now_ns();
        return;
    }
    reset();
    epoch_ = std::chrono::steady_clock::now();
    data_->engine = engine;
    data_->population = population;
    data_->spans.reserve(std::min<std::size_t>(kMaxSpans, 4096));
    // reset() cleared the registry, so the instruments are resolved afresh.
    skip_lengths_ = &registry_.histogram("null_skip_length_log2");
    super_step_pairs_ = &registry_.histogram("super_step_pairs_log2");
    running_ = true;
}

void RunTelemetryCollector::finish_run(std::uint64_t interactions,
                                       std::uint64_t effective_interactions) {
    if (!running_) return;
    if (adaptive_scope_) {
        // Segment boundary: close this segment's attribution entry using
        // the loop's exact final interaction index (the live counter may be
        // stale — the loop publishes *after* the iteration that broke) and
        // keep the run open for the next segment.
        data_->engine_segments.push_back({segment_engine_,
                                          interactions - segment_boundary_interactions_,
                                          now_ns() - segment_start_ns_});
        segment_boundary_interactions_ = interactions;
        publish_interactions(interactions);
        return;
    }
    running_ = false;
    RunTelemetry& data = *data_;
    data.wall_ns = now_ns();
    data.interactions = interactions;
    data.effective_interactions = effective_interactions;
    publish_interactions(interactions);

    // Derived stepping time: the loop remainder no explicit timer covers.
    // Per-interaction engines spend it sampling and applying interactions
    // (clocking each O(ns) step individually would dwarf the work); for
    // super-step engines it is the residual kernel overhead around the
    // explicit kRunLengthDraw / kSuperStepApply phases.
    std::uint64_t attributed = 0;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        const auto phase = static_cast<Phase>(p);
        if (phase == Phase::kStepping || phase_is_nested(phase)) continue;
        attributed += data.phases[p].total_ns;
    }
    PhaseStat& stepping = data.phases[static_cast<std::size_t>(Phase::kStepping)];
    stepping.total_ns = data.wall_ns > attributed ? data.wall_ns - attributed : 0;
    stepping.max_ns = 0;
    stepping.calls = 0;

    data.counters = registry_.counters();
    data.histograms = registry_.histograms();
}

void RunTelemetryCollector::begin_adaptive_run(std::uint64_t population,
                                               std::uint64_t start_interactions) {
    begin_run("adaptive", population);
    adaptive_scope_ = true;
    segment_boundary_interactions_ = start_interactions;
}

void RunTelemetryCollector::finish_adaptive_run(std::uint64_t interactions,
                                                std::uint64_t effective_interactions) {
    adaptive_scope_ = false;
    if (running_) {
        data_->engine_switches =
            data_->engine_segments.empty() ? 0 : data_->engine_segments.size() - 1;
        finish_run(interactions, effective_interactions);
    }
}

void RunTelemetryCollector::record_phase(Phase phase, std::uint64_t begin_ns,
                                         std::uint64_t end_ns) {
    const std::uint64_t duration = end_ns > begin_ns ? end_ns - begin_ns : 0;
    PhaseStat& stat = data_->phases[static_cast<std::size_t>(phase)];
    ++stat.calls;
    stat.total_ns += duration;
    if (duration > stat.max_ns) stat.max_ns = duration;
    if (data_->spans.size() < kMaxSpans) {
        data_->spans.push_back({phase, begin_ns, end_ns});
    } else {
        ++data_->spans_dropped;
    }
}

void RunTelemetryCollector::record_skip(std::uint64_t length) {
    ++data_->geometric_skips;
    data_->null_interactions_skipped += length;
    skip_lengths_->record(length);
}

void RunTelemetryCollector::record_super_step(std::uint64_t pairs, bool clamped) {
    ++data_->super_steps;
    if (clamped) ++data_->clamped_super_steps;
    data_->super_step_pairs += pairs;
    super_step_pairs_->record(pairs);
}

namespace {

std::string format_ms(std::uint64_t ns) {
    std::ostringstream out;
    out << std::fixed << std::setprecision(3) << static_cast<double>(ns) / 1e6;
    return out.str();
}

}  // namespace

std::string RunTelemetry::to_string() const {
    std::ostringstream out;
    out << "telemetry (schema v" << kSchemaVersion << "): engine=" << engine
        << " n=" << population << " wall_ms=" << format_ms(wall_ns)
        << " interactions=" << interactions << " effective=" << effective_interactions << "\n";
    out << "phases (ms, calls, max_ms):\n";
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        const PhaseStat& stat = phases[p];
        if (stat.calls == 0 && stat.total_ns == 0) continue;
        out << "  " << phase_name(static_cast<Phase>(p)) << ": " << format_ms(stat.total_ns)
            << " ms, " << stat.calls << " calls, max " << format_ms(stat.max_ns) << " ms\n";
    }
    if (super_steps != 0) {
        out << "super-steps: " << super_steps << " (" << clamped_super_steps << " clamped), "
            << super_step_pairs << " collision-free pairs\n";
    }
    if (geometric_skips != 0) {
        out << "geometric skips: " << geometric_skips << " runs, "
            << null_interactions_skipped << " null interactions skipped\n";
    }
    if (!engine_segments.empty()) {
        out << "engine segments (" << engine_switches << " switches):\n";
        for (std::size_t k = 0; k < engine_segments.size(); ++k) {
            const EngineSegment& segment = engine_segments[k];
            out << "  segment " << k << ": " << segment.engine << ", "
                << segment.interactions << " interactions, " << format_ms(segment.wall_ns)
                << " ms\n";
        }
    }
    out << "spans: " << spans.size() << " recorded, " << spans_dropped << " dropped\n";
    return out.str();
}

}  // namespace popproto::telemetry
