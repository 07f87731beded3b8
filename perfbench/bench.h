// Shared pieces of the popbench program: workload configuration, the metric
// lists, the correctness tally, and the in-memory span recorder used by the
// traced pass.

#ifndef POPBENCH_BENCH_H
#define POPBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace popproto::telemetry {
struct RunTelemetry;
}

namespace popbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

/// SplitMix64: every input of a workload is drawn from one of these, seeded
/// by the workload seed, so a seed fixes the inputs and nothing else does.
class SeedStream {
public:
    explicit SeedStream(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /// Uniform in [0, bound).
    std::uint64_t below(std::uint64_t bound) { return next() % bound; }
    /// Uniform in [0, 1).
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    /// Fisher-Yates shuffle of `items`.
    template <typename T>
    void shuffle(std::vector<T>& items) {
        for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[below(i)]);
    }

private:
    std::uint64_t state_;
};

struct Config {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Self-test sizes: tiny populations and short phases.
    bool tiny = false;
    /// Self-test hook: flip the expected answer of the first checked output,
    /// which the oracle must then report as wrong.
    bool inject_wrong = false;
    std::string spans_path;   ///< where the traced pass writes its spans
    std::string daemon_path;  ///< serve_popproto binary (service_mix)
    std::string work_dir;     ///< where the daemon socket and spill files go
};

/// Named values with units, in insertion order.
class Metrics {
public:
    void set(const std::string& name, double value, const std::string& unit);
    /// Multiplies every time (unit s or ms) by `factor` and divides every
    /// rate (unit 1/s) by it; other units are left alone.
    void scale_times(double factor);
    std::string to_json() const;

private:
    struct Entry {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/// The benchmark's end-to-end metrics, emitted by every workload.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
/// The per-layer metrics of the traced pass, emitted by every workload
/// (0 for a layer the workload does not reach).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
/// Every per-layer metric at 0, for a workload to fill in.
void zero_layers(Metrics& layers);

/// Correctness tally: every checked output is one attempt.
class Oracle {
public:
    explicit Oracle(bool inject_wrong) : inject_wrong_(inject_wrong) {}
    /// The expected answer for the next checked output: `answer` itself,
    /// except that under inject_wrong the first call returns it flipped.
    std::uint64_t expect(std::uint64_t answer);
    /// Records one attempted operation and whether its output was right.
    void record(bool ok, const std::string& what);
    /// As record, but builds the failure message only when it is needed.
    template <typename Describe>
    void check(bool ok, Describe&& describe) {
        record(ok, ok ? std::string() : describe());
    }

    std::uint64_t attempted() const;
    std::uint64_t failed() const;
    std::vector<std::string> failures() const;

private:
    mutable std::mutex mutex_;
    bool inject_wrong_;
    std::uint64_t attempted_ = 0;
    std::vector<std::string> failures_;
};

/// One span: a call into a layer, or a benchmark phase.
struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 only for the pass root
    std::uint32_t lane = 0;    ///< 0 = the driving thread; others are async
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::string run;           ///< shared run / session id
};

/// In-memory span recorder.  Disabled (every call a no-op) outside the
/// traced pass; spans are written out once, when the pass ends.
class Tracer {
public:
    void enable(Clock::time_point epoch);
    bool enabled() const { return enabled_; }
    std::uint64_t now_ns() const;
    std::uint64_t to_ns(Clock::time_point t) const;

    /// Opens a span on the calling thread's lane-0 stack (parent = the
    /// innermost open span) and returns its id.
    std::uint64_t open(const std::string& name, const std::string& run = "");
    void close(std::uint64_t id);
    /// Records a finished span with an explicit parent (async lanes).
    std::uint64_t record(const std::string& name, std::uint64_t parent, std::uint32_t lane,
                         std::uint64_t start_ns, std::uint64_t end_ns,
                         const std::string& run = "");
    /// Id of the innermost open lane-0 span (0 when none).
    std::uint64_t current() const;

    void write(const std::string& path) const;

private:
    bool enabled_ = false;
    Clock::time_point epoch_{};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::vector<std::uint64_t> stack_;  ///< open lane-0 spans (index + 1)
};

/// RAII lane-0 span.
class SpanScope {
public:
    SpanScope(Tracer& tracer, const std::string& name, const std::string& run = "")
        : tracer_(tracer), id_(tracer.enabled() ? tracer.open(name, run) : 0) {}
    ~SpanScope() {
        if (id_ != 0) tracer_.close(id_);
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    Tracer& tracer_;
    std::uint64_t id_;
};

/// Sums RunTelemetry over the runs of a traced pass and reports the core.*
/// and adaptive.* per-layer metrics as per-run means.
class KernelTotals {
public:
    void add(const popproto::telemetry::RunTelemetry& data);
    void fill(Metrics& layers) const;

private:
    std::uint64_t runs_ = 0;
    std::uint64_t wall_ns_ = 0;
    std::uint64_t interactions_ = 0;
    std::uint64_t effective_ = 0;
    std::uint64_t null_skipped_ = 0;
    std::uint64_t super_steps_ = 0;
    std::uint64_t switches_ = 0;
    std::uint64_t collapsed_ns_ = 0;
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> phases_;  ///< ns, calls
};

/// One workload pass: set-up, measurement, and (traced) per-layer numbers.
struct PassResult {
    Metrics end_to_end;
    Metrics report;  ///< the workload's own named end-to-end metrics
    Metrics layers;
    double wall_s = 0.0;      ///< measured wall of the pass (overhead ratio)
    std::uint64_t units = 0;  ///< work units done (runs, jobs, rounds)
    double host_speed = 1.0;  ///< HostSpeed::factor() over the pass
};

/// A workload pass.  `units` == 0 measures for `seconds`; otherwise it runs
/// exactly that many units (the traced pass repeats the untraced one's).
using Workload = PassResult (*)(const Config& config, Oracle& oracle, Tracer& tracer,
                                double seconds, std::uint64_t units);

PassResult run_epidemic_large(const Config&, Oracle&, Tracer&, double, std::uint64_t);
PassResult run_predicate_compiled(const Config&, Oracle&, Tracer&, double, std::uint64_t);
PassResult run_trials_small(const Config&, Oracle&, Tracer&, double, std::uint64_t);
PassResult run_service_mix(const Config&, Oracle&, Tracer&, double, std::uint64_t);

double median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q);

/// The host's speed during a pass.  This shared host slows every core
/// together, by up to 40%, in periods lasting minutes: longer than a run, so
/// no statistic over one run's units can see past them.  A fixed reference
/// kernel, timed between units, slows with the program (an instruction-dense
/// loop; across runs its fast decile moved with the program's at a
/// correlation of 0.97-1.00), and the end-to-end timings of a pass are scaled
/// by its speed to the speed of the reference host at its quietest.
class HostSpeed {
public:
    explicit HostSpeed(Tracer& tracer) : tracer_(tracer) {}
    /// Times one call of the reference kernel (~1.5 ms).
    void sample();
    /// Reference-host kernel time over this pass's fast-decile kernel time:
    /// below 1 on a slowed host.  1 before any sample.
    double factor() const;

private:
    Tracer& tracer_;
    std::vector<double> seconds_;
    std::uint64_t sink_ = 1;
};
/// The reference kernel, compiled apart from the program and the rest of
/// the benchmark (hostspeed.cpp).
std::uint64_t reference_kernel(std::uint64_t seed);

/// Timings of many alike units (epidemic runs, tiny sessions) are summarised
/// by their fast decile.  Host noise here is one-sided: other tenants'
/// threads on a shared core slow throughput-bound code by up to 40% in
/// episodes lasting seconds, and never speed it up, so the median follows
/// how much of a run the episodes covered while the fast decile follows the
/// program's cost.  Units that differ by input are first normalised by
/// their work (per interaction, per effective interaction).
inline double fast_time(std::vector<double> walls) { return percentile(std::move(walls), 0.1); }
inline double fast_rate(std::vector<double> rates) { return percentile(std::move(rates), 0.9); }
/// Peak resident set (VmHWM) of a process, in MB; pid 0 = this process.
double peak_rss_mb(int pid = 0);

}  // namespace popbench

#endif  // POPBENCH_BENCH_H
