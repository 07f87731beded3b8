#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "service/json.h"
#include "telemetry/telemetry.h"

namespace popbench {

std::uint64_t SeedStream::next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
    for (Entry& entry : entries_) {
        if (entry.name == name) {
            entry.value = value;
            entry.unit = unit;
            return;
        }
    }
    entries_.push_back({name, value, unit});
}

void Metrics::scale_times(double factor) {
    for (Entry& entry : entries_) {
        if (entry.unit == "s" || entry.unit == "ms") entry.value *= factor;
        else if (entry.unit == "1/s") entry.value /= factor;
    }
}

std::string Metrics::to_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (i != 0) out += ',';
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(entries_[i].value) ? entries_[i].value : 0.0);
        out += popproto::service::json_quote(entries_[i].name) + ":{\"value\":" + value +
               ",\"unit\":" + popproto::service::json_quote(entries_[i].unit) + "}";
    }
    return out + "}";
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
    static const std::vector<std::pair<std::string, std::string>> list = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"runs_per_s", "1/s"},
        {"interactions_per_s", "1/s"},
        {"eff_interactions_per_s", "1/s"},
        {"unit_ms", "ms"},
    };
    return list;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
    static const std::vector<std::pair<std::string, std::string>> list = {
        {"presburger.parse_ms", "ms"},
        {"presburger.compile_ms", "ms"},
        {"presburger.num_states", "count"},
        {"core.stepping_ns_per_eff", "ns"},
        {"core.effective_ratio", "ratio"},
        {"core.null_skipped_ratio", "ratio"},
        {"core.super_steps", "count"},
        {"core.super_step_apply_ns", "ns"},
        {"core.pair_cascade_ns", "ns"},
        {"core.w_recompute_ns", "ns"},
        {"core.run_length_draw_ns", "ns"},
        {"core.delta_merge_ns", "ns"},
        {"core.silence_check.calls", "count"},
        {"core.silence_check_ms", "ms"},
        {"adaptive.switches", "count"},
        {"adaptive.switch_ms", "ms"},
        {"adaptive.collapsed_wall_share", "ratio"},
        {"trials.scaling_eff", "ratio"},
        {"service.submit_rtt_ms.tiny.p50", "ms"},
        {"service.submit_rtt_ms.predicate.p50", "ms"},
        {"service.status_rtt_ms.p50", "ms"},
        {"service.queue_depth_max", "count"},
        {"service.quanta_per_long_session", "count"},
        {"service.evictions", "count"},
        {"service.faults", "count"},
        {"service.suspend_resume_ms", "ms"},
        {"service.refused", "count"},
        {"telemetry.overhead_ratio", "ratio"},
        {"bench.gen_lag_p99_ms", "ms"},
    };
    return list;
}

void zero_layers(Metrics& layers) {
    for (const auto& [name, unit] : per_layer_metrics()) layers.set(name, 0.0, unit);
}

std::uint64_t Oracle::expect(std::uint64_t answer) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!inject_wrong_) return answer;
    inject_wrong_ = false;
    return answer == 0 ? 1 : 0;
}

void Oracle::record(bool ok, const std::string& what) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    if (!ok) failures_.push_back(what);
}

std::uint64_t Oracle::attempted() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return attempted_;
}

std::uint64_t Oracle::failed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return failures_.size();
}

std::vector<std::string> Oracle::failures() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return failures_;
}

void Tracer::enable(Clock::time_point epoch) {
    epoch_ = epoch;
    enabled_ = true;
}

std::uint64_t Tracer::to_ns(Clock::time_point t) const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count());
}

std::uint64_t Tracer::now_ns() const { return to_ns(Clock::now()); }

std::uint64_t Tracer::open(const std::string& name, const std::string& run) {
    const std::uint64_t start = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.name = name;
    span.id = spans_.size() + 1;
    span.parent = stack_.empty() ? 0 : stack_.back();
    span.start_ns = start;
    span.run = run.empty() && span.parent != 0 ? spans_[span.parent - 1].run : run;
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.size());
    return spans_.size();
}

void Tracer::close(std::uint64_t id) {
    const std::uint64_t end = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stack_.empty() || stack_.back() != id)
        throw std::logic_error("Tracer: span " + spans_[id - 1].name + " closed out of order");
    stack_.pop_back();
    spans_[id - 1].end_ns = end;
}

std::uint64_t Tracer::record(const std::string& name, std::uint64_t parent, std::uint32_t lane,
                             std::uint64_t start_ns, std::uint64_t end_ns,
                             const std::string& run) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.name = name;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.lane = lane;
    span.start_ns = start_ns;
    span.end_ns = std::max(start_ns, end_ns);
    span.run = run;
    spans_.push_back(std::move(span));
    return spans_.size();
}

std::uint64_t Tracer::current() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stack_.empty() ? 0 : stack_.back();
}

void Tracer::write(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    for (const Span& span : spans_) {
        out << "{\"name\":" << popproto::service::json_quote(span.name) << ",\"id\":" << span.id
            << ",\"parent\":" << span.parent << ",\"lane\":" << span.lane
            << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
            << ",\"run\":" << popproto::service::json_quote(span.run) << "}\n";
    }
    out.flush();
    if (!out) throw std::runtime_error("short write of spans to " + path);
}

void KernelTotals::add(const popproto::telemetry::RunTelemetry& data) {
    using popproto::telemetry::Phase;
    ++runs_;
    wall_ns_ += data.wall_ns;
    interactions_ += data.interactions;
    effective_ += data.effective_interactions;
    null_skipped_ += data.null_interactions_skipped;
    super_steps_ += data.super_steps;
    switches_ += data.engine_switches;
    for (const auto& segment : data.engine_segments) {
        if (segment.engine == "collapsed") collapsed_ns_ += segment.wall_ns;
    }
    if (data.engine_segments.empty() && data.engine == "collapsed") collapsed_ns_ += data.wall_ns;
    for (std::size_t p = 0; p < popproto::telemetry::kNumPhases; ++p) {
        auto& [ns, calls] = phases_[popproto::telemetry::phase_name(static_cast<Phase>(p))];
        ns += data.phases[p].total_ns;
        calls += data.phases[p].calls;
    }
}

void KernelTotals::fill(Metrics& layers) const {
    if (runs_ == 0) return;
    const double runs = static_cast<double>(runs_);
    const auto phase = [&](const char* name) {
        const auto it = phases_.find(name);
        return it == phases_.end() ? std::pair<std::uint64_t, std::uint64_t>{0, 0} : it->second;
    };
    const auto per_call = [&](const char* name) {
        const auto [ns, calls] = phase(name);
        return calls == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(calls);
    };
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    layers.set("core.stepping_ns_per_eff", ratio(phase("stepping").first, effective_), "ns");
    layers.set("core.effective_ratio", ratio(effective_, interactions_), "ratio");
    layers.set("core.null_skipped_ratio", ratio(null_skipped_, interactions_), "ratio");
    layers.set("core.super_steps", static_cast<double>(super_steps_) / runs, "count");
    layers.set("core.super_step_apply_ns", per_call("super_step_apply"), "ns");
    layers.set("core.pair_cascade_ns", per_call("pair_cascade"), "ns");
    layers.set("core.w_recompute_ns", per_call("w_recompute"), "ns");
    layers.set("core.run_length_draw_ns", per_call("run_length_draw"), "ns");
    layers.set("core.delta_merge_ns", per_call("delta_merge"), "ns");
    layers.set("core.silence_check.calls",
               static_cast<double>(phase("silence_check").second) / runs, "count");
    layers.set("core.silence_check_ms",
               static_cast<double>(phase("silence_check").first) / runs / 1e6, "ms");
    layers.set("adaptive.switches", static_cast<double>(switches_) / runs, "count");
    layers.set("adaptive.switch_ms",
               static_cast<double>(phase("engine_switch").first) / runs / 1e6, "ms");
    layers.set("adaptive.collapsed_wall_share", ratio(collapsed_ns_, wall_ns_), "ratio");
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
    return values[index];
}

void HostSpeed::sample() {
    SpanScope span(tracer_, "bench.host_speed");
    const Clock::time_point t0 = Clock::now();
    sink_ = reference_kernel(sink_);
    seconds_.push_back(seconds_between(t0, Clock::now()));
}

double HostSpeed::factor() const {
    /// The kernel's fast decile on the reference host (README) in its
    /// quietest runs.
    constexpr double kReferenceSeconds = 1.45e-3;
    return seconds_.empty() ? 1.0 : kReferenceSeconds / fast_time(seconds_);
}

double peak_rss_mb(int pid) {
    const std::string path =
        pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    throw std::runtime_error("no VmHWM in " + path);
}

}  // namespace popbench
