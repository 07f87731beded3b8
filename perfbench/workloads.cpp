// The three in-process workloads: epidemic_large, predicate_compiled and
// trials_small.  Each drives only public entry points (run_simulation,
// measure_trials, parse_formula / compile_formula) and checks every output
// against ground truth.

#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "core/batch_simulator.h"
#include "presburger/compiler.h"
#include "presburger/parser.h"
#include "protocols/counting.h"
#include "protocols/epidemic.h"
#include "randomized/trials.h"
#include "telemetry/telemetry.h"

namespace popbench {

using namespace popproto;

namespace {

/// A microsecond set-up is timed over kSetupBatch repetitions at a time,
/// once before the first unit and again after every unit, and reported as
/// the median: spread over the whole pass, it sees the same host as the
/// units do rather than one snapshot at start-up.
constexpr int kSetupBatch = 50;

/// Seconds per set-up of `kSetupBatch` calls of `setup`.
template <typename Setup>
double timed_setup(Tracer& tracer, Setup&& setup) {
    SpanScope span(tracer, "bench.setup");
    const Clock::time_point t0 = Clock::now();
    for (int b = 0; b < kSetupBatch; ++b) setup();
    return seconds_between(t0, Clock::now()) / kSetupBatch;
}

bool keep_going(Clock::time_point start, double seconds, std::uint64_t units,
                std::uint64_t done) {
    if (units != 0) return done < units;
    return done == 0 || seconds_between(start, Clock::now()) < seconds;
}

/// Moves the calling thread to the next CPUs of the process's affinity set
/// before a unit, advancing at most every kRotatePeriod, and restores the set
/// when done.  Contention here comes from other tenants' threads on
/// particular cores and can last a whole run; rotating keeps one busy core
/// from deciding a run's fast decile.  A move costs ~0.1 ms, hence the
/// period.  `width` consecutive CPUs are allowed at a time: threads the
/// caller spawns inherit them, so a 2-thread unit rotates over CPU pairs.
class CpuRotation {
public:
    CpuRotation() {
        CPU_ZERO(&original_);
        if (::sched_getaffinity(0, sizeof original_, &original_) != 0) return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
        }
    }
    ~CpuRotation() {
        if (!cpus_.empty()) ::sched_setaffinity(0, sizeof original_, &original_);
    }
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    void next(std::size_t width = 1) {
        if (cpus_.empty()) return;
        width = std::min(width, cpus_.size());
        const Clock::time_point now = Clock::now();
        const bool advance = now - last_ >= kRotatePeriod;
        if (!advance && width == width_) return;
        if (advance) {
            last_ = now;
            ++first_;
        }
        width_ = width;
        cpu_set_t set;
        CPU_ZERO(&set);
        for (std::size_t k = 0; k < width; ++k) CPU_SET(cpus_[(first_ + k) % cpus_.size()], &set);
        ::sched_setaffinity(0, sizeof set, &set);
    }

private:
    static constexpr std::chrono::milliseconds kRotatePeriod{100};
    cpu_set_t original_;
    std::vector<int> cpus_;
    std::size_t first_ = 0;
    std::size_t width_ = 0;
    Clock::time_point last_{};
};

/// One simulation under the traced pass's telemetry collector (when tracing).
RunResult traced_run(Tracer& tracer, KernelTotals& kernel, const TabulatedProtocol& protocol,
                     const CountConfiguration& initial, RunOptions options,
                     const std::string& run_id) {
    std::optional<telemetry::RunTelemetryCollector> collector;
    if (tracer.enabled()) options.telemetry = &collector.emplace();
    SpanScope span(tracer, "core.run_simulation", run_id);
    RunResult result = run_simulation(protocol, initial, options);
    if (result.telemetry != nullptr) kernel.add(*result.telemetry);
    return result;
}

}  // namespace

// Two-way epidemic from one infected agent at n = 2^24: kAuto hands it to
// the adaptive dispatcher (count-batch -> collapsed -> count-batch).  |Q| = 2,
// so this prices per-interaction and per-super-step cost, not |Q| cost.
PassResult run_epidemic_large(const Config& config, Oracle& oracle, Tracer& tracer,
                              double seconds, std::uint64_t units) {
    const std::uint64_t n = config.tiny ? std::uint64_t{1} << 12 : std::uint64_t{1} << 24;
    PassResult pass;
    zero_layers(pass.layers);

    std::unique_ptr<TabulatedProtocol> protocol;
    std::optional<CountConfiguration> initial;
    const auto setup = [&] {
        protocol = make_epidemic_protocol();
        initial = CountConfiguration::from_input_counts(*protocol, {n - 1, 1});
    };
    std::vector<double> setups = {timed_setup(tracer, setup)};

    SeedStream seeds(config.seed);
    KernelTotals kernel;
    CpuRotation rotation;
    HostSpeed host(tracer);
    std::vector<double> walls, interaction_rates;
    const Clock::time_point start = Clock::now();
    while (keep_going(start, seconds, units, walls.size())) {
        rotation.next();
        host.sample();
        const std::string run_id = "run-" + std::to_string(walls.size());
        RunOptions options;
        options.seed = seeds.next();
        const std::uint64_t want = oracle.expect(1);
        const Clock::time_point t0 = Clock::now();
        const RunResult result = traced_run(tracer, kernel, *protocol, *initial, options, run_id);
        walls.push_back(seconds_between(t0, Clock::now()));
        interaction_rates.push_back(static_cast<double>(result.interactions) / walls.back());
        oracle.check(result.stop_reason == StopReason::kSilent &&
                         result.effective_interactions == n - 1 &&
                         result.consensus == static_cast<Symbol>(want),
                     [&] {
                         return "epidemic " + run_id + " (seed " +
                                std::to_string(options.seed) +
                                "): not a silent all-infected stop after n-1 effective "
                                "interactions";
                     });
        setups.push_back(timed_setup(tracer, setup));
    }
    pass.wall_s = seconds_between(start, Clock::now());
    pass.units = walls.size();
    pass.host_speed = host.factor();

    const double run_s = fast_time(walls);
    const double interaction_rate = fast_rate(interaction_rates);
    pass.end_to_end.set("setup_s", median(setups), "s");
    pass.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MB");
    pass.end_to_end.set("runs_per_s", 1.0 / run_s, "1/s");
    pass.end_to_end.set("interactions_per_s", interaction_rate, "1/s");
    pass.end_to_end.set("eff_interactions_per_s", static_cast<double>(n - 1) / run_s, "1/s");
    pass.end_to_end.set("unit_ms", run_s * 1e3, "ms");
    pass.report.set("runs_per_s", 1.0 / run_s, "1/s");
    pass.report.set("interactions_per_s", interaction_rate, "1/s");
    kernel.fill(pass.layers);
    return pass;
}

// Lemma 5 compiler output: the 5%-fever threshold (|Q| = 156) and its
// conjunction with a mod-3 congruence (|Q| = 1872, a delta table far beyond
// cache), each run to silence at n = 2^10 on the count-batch engine.  One
// job is one generated input answered by both predicates; a pass runs whole
// ladders of six jobs, so every seed gets the same mix of fever shares.
PassResult run_predicate_compiled(const Config& config, Oracle& oracle, Tracer& tracer,
                                  double seconds, std::uint64_t units) {
    static const std::array<std::string, 2> kFormulas = {
        "20*x1 >= x0 + x1",
        "20*x1 >= x0 + x1 & x0 = 1 mod 3",
    };
    // Fever shares around the 5% threshold: both answers occur, and a fixed
    // ladder keeps each seed's mix of run lengths alike.
    static const std::array<double, 6> kShares = {0.035, 0.04, 0.045, 0.055, 0.06, 0.065};
    const std::uint64_t n = config.tiny ? 256 : std::uint64_t{1} << 10;
    PassResult pass;
    zero_layers(pass.layers);

    std::vector<Formula> formulas;
    std::vector<std::unique_ptr<TabulatedProtocol>> protocols;
    std::vector<double> setups, parse_s, compile_s;
    // Parse and compile both predicates.  Timed once before the first job
    // and again after every kSetupLadders ladders: the median then sees the
    // host the jobs see.
    constexpr std::size_t kSetupLadders = 4;
    const auto setup = [&] {
        formulas.clear();
        protocols.clear();
        double parse = 0.0, compile = 0.0;
        for (const std::string& text : kFormulas) {
            const Clock::time_point t0 = Clock::now();
            {
                SpanScope span(tracer, "presburger.parse_formula");
                formulas.push_back(parse_formula(text));
            }
            const Clock::time_point t1 = Clock::now();
            {
                SpanScope span(tracer, "presburger.compile_formula");
                protocols.push_back(compile_formula(formulas.back(), 2));
            }
            parse += seconds_between(t0, t1);
            compile += seconds_between(t1, Clock::now());
        }
        parse_s.push_back(parse);
        compile_s.push_back(compile);
        setups.push_back(parse + compile);
    };
    setup();

    SeedStream seeds(config.seed);
    KernelTotals kernel;
    std::uint64_t jobs = 0;
    // Per predicate: seconds per effective interaction of each run, and the
    // interactions and effective interactions of all its runs.
    std::array<std::vector<double>, 2> eff_costs;
    std::array<std::uint64_t, 2> total_interactions = {0, 0}, total_effective = {0, 0};
    std::vector<double> shares(kShares.begin(), kShares.end());
    std::vector<int> classes = {0, 1, 0, 1, 0, 1};
    CpuRotation rotation;
    HostSpeed host(tracer);
    const Clock::time_point start = Clock::now();
    while (jobs % kShares.size() != 0 || keep_going(start, seconds, units, jobs)) {
        const std::size_t job = jobs;
        host.sample();
        if (job % shares.size() == 0) {
            seeds.shuffle(shares);
            seeds.shuffle(classes);
        }
        // x1 fevered agents; nudge x1 up by 0..2 so x0 = n - x1 lands in
        // the drawn mod-3 class (class 1: x0 = 1 mod 3).
        std::uint64_t x1 = static_cast<std::uint64_t>(shares[job % shares.size()] *
                                                      static_cast<double>(n));
        const bool want_class_one = classes[job % classes.size()] == 1;
        while (((n - x1) % 3 == 1) != want_class_one) ++x1;
        const std::vector<std::uint64_t> counts = {n - x1, x1};
        const std::vector<std::int64_t> values = {static_cast<std::int64_t>(n - x1),
                                                  static_cast<std::int64_t>(x1)};
        const std::string job_id = "job-" + std::to_string(job);
        for (std::size_t p = 0; p < protocols.size(); ++p) {
            rotation.next();
            std::optional<CountConfiguration> initial;
            {
                SpanScope span(tracer, "core.build_initial", job_id);
                initial = CountConfiguration::from_input_counts(*protocols[p], counts);
            }
            RunOptions options;
            options.seed = seeds.next();
            // Pinned: kAuto would hand n < 2^12 to the agent array.
            options.engine = SimulationEngine::kCountBatch;
            const std::uint64_t want = oracle.expect(formulas[p].evaluate(values) ? 1 : 0);
            const Clock::time_point r0 = Clock::now();
            const RunResult result =
                traced_run(tracer, kernel, *protocols[p], *initial, options, job_id);
            const double wall = seconds_between(r0, Clock::now());
            eff_costs[p].push_back(wall / static_cast<double>(result.effective_interactions));
            total_interactions[p] += result.interactions;
            total_effective[p] += result.effective_interactions;
            oracle.check(result.stop_reason == StopReason::kSilent &&
                             result.consensus == static_cast<Symbol>(want),
                         [&] {
                             return "predicate '" + kFormulas[p] + "' on x0=" +
                                    std::to_string(n - x1) + " x1=" + std::to_string(x1) +
                                    " (seed " + std::to_string(options.seed) + "): consensus " +
                                    (result.consensus ? std::to_string(*result.consensus)
                                                      : "none") +
                                    ", evaluator says " + std::to_string(want);
                         });
        }
        if (++jobs % (kSetupLadders * kShares.size()) == 0) setup();
    }
    pass.wall_s = seconds_between(start, Clock::now());
    pass.units = jobs;
    pass.host_speed = host.factor();

    // Per predicate (the two differ ~10x in cost), each run's wall is taken
    // per effective interaction, which normalises away its input and sample
    // path, and summarised by the fast decile.  A job then costs each
    // predicate's fast cost times its mean effective interactions per run.
    // The two are combined so that each weighs the same: geometric means of
    // the per-predicate rates.
    std::array<double, 2> eff_rates{}, interaction_rates{};
    double job_s = 0.0;
    for (std::size_t p = 0; p < protocols.size(); ++p) {
        const double cost = fast_time(eff_costs[p]);
        const double effective = static_cast<double>(total_effective[p]);
        eff_rates[p] = 1.0 / cost;
        interaction_rates[p] = static_cast<double>(total_interactions[p]) / effective / cost;
        job_s += cost * effective / static_cast<double>(jobs);
    }
    const double runs_per_s = 2.0 / job_s;
    const double eff_rate = std::sqrt(eff_rates[0] * eff_rates[1]);
    pass.end_to_end.set("setup_s", median(setups), "s");
    pass.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MB");
    pass.end_to_end.set("runs_per_s", runs_per_s, "1/s");
    pass.end_to_end.set("interactions_per_s",
                        std::sqrt(interaction_rates[0] * interaction_rates[1]),
                        "1/s");
    pass.end_to_end.set("eff_interactions_per_s", eff_rate, "1/s");
    pass.end_to_end.set("unit_ms", job_s * 1e3, "ms");
    pass.report.set("runs_per_s", runs_per_s, "1/s");
    pass.report.set("eff_interactions_per_s", eff_rate, "1/s");

    std::uint64_t states = 0;
    for (const auto& protocol : protocols) states += protocol->num_states();
    pass.layers.set("presburger.parse_ms", median(parse_s) * 1e3, "ms");
    pass.layers.set("presburger.compile_ms", median(compile_s) * 1e3, "ms");
    pass.layers.set("presburger.num_states", static_cast<double>(states), "count");
    kernel.fill(pass.layers);
    return pass;
}

// measure_trials of the paper's count-to-five (flock of birds) at n = 2^10:
// the agent-array engine, per-run set-up, periodic silence checks, and the
// across-trials parallelism.  One round is a batch on 4 fevered birds and a
// batch on 5, each at 1 thread and again at 2 threads.
PassResult run_trials_small(const Config& config, Oracle& oracle, Tracer& tracer,
                            double seconds, std::uint64_t units) {
    const std::uint64_t n = config.tiny ? 64 : 1024;
    // Short batches, so that a pass holds enough of them for a steady fast
    // decile.
    const std::uint64_t trials = 8;
    /// Trials of each batch replayed through run_simulation under telemetry
    /// in the traced pass (measure_trials takes no shared collector).
    const std::uint64_t replays = config.tiny ? 2 : 3;
    PassResult pass;
    zero_layers(pass.layers);

    std::unique_ptr<TabulatedProtocol> protocol;
    std::vector<std::optional<CountConfiguration>> initial(2);
    const auto setup = [&] {
        protocol = make_counting_protocol(5);
        for (std::uint64_t fevered : {4, 5})
            initial[fevered - 4] =
                CountConfiguration::from_input_counts(*protocol, {n - fevered, fevered});
    };
    std::vector<double> setups = {timed_setup(tracer, setup)};

    SeedStream seeds(config.seed);
    KernelTotals kernel;
    // Per batch (one measure_trials call): its walls at 1 and 2 threads and
    // its work.  A batch's work follows its trials' random convergence times,
    // so rates are taken per interaction (work-normalised, then the fast
    // decile over batches) and converted back with the pass-wide mean work
    // per trial.
    std::vector<double> batch_walls_1t, batch_interactions, rates_1t, rates_2t;
    std::uint64_t rounds = 0, total_trials = 0, total_interactions = 0, total_effective = 0;
    std::vector<std::uint64_t> order = {4, 5};
    double replay_s = 0.0;  // kept out of wall_s, so overhead_ratio prices probes only
    CpuRotation rotation;
    HostSpeed host(tracer);
    const Clock::time_point start = Clock::now();
    while (keep_going(start, seconds, units, rounds)) {
        host.sample();
        const std::string round_id = "round-" + std::to_string(rounds);
        seeds.shuffle(order);
        for (const std::uint64_t fevered : order) {
            TrialOptions options;
            options.base.seed = seeds.next();
            options.trials = trials;
            options.keep_records = true;
            options.expected_consensus = static_cast<Symbol>(oracle.expect(fevered >= 5 ? 1 : 0));
            std::array<TrialSummary, 2> summaries;
            std::array<double, 2> walls{};
            for (const unsigned threads : {1u, 2u}) {
                options.threads = threads;
                rotation.next(threads);
                const Clock::time_point t0 = Clock::now();
                {
                    SpanScope span(tracer,
                                   "randomized.measure_trials." + std::to_string(threads) + "t",
                                   round_id);
                    summaries[threads - 1] =
                        measure_trials(*protocol, *initial[fevered - 4], options);
                }
                walls[threads - 1] = seconds_between(t0, Clock::now());
                const TrialSummary& summary = summaries[threads - 1];
                oracle.record(summary.correct == trials && summary.silent == trials,
                              "measure_trials " + round_id + " with " + std::to_string(fevered) +
                                  " fevered birds at " + std::to_string(threads) +
                                  " threads: " + std::to_string(summary.correct) + " of " +
                                  std::to_string(trials) + " correct and silent");
            }
            // Trial t runs seed base.seed + t at every thread count, so the
            // two summaries must agree exactly.
            oracle.record(summaries[0].median_convergence == summaries[1].median_convergence &&
                              summaries[0].max_convergence == summaries[1].max_convergence,
                          "measure_trials " + round_id + ": 1- and 2-thread summaries differ");
            std::uint64_t interactions = 0;
            for (const TrialRecord& record : summaries[1].records) {
                interactions += record.interactions;
                total_effective += record.effective_interactions;
            }
            batch_walls_1t.push_back(walls[0]);
            batch_interactions.push_back(static_cast<double>(interactions));
            rates_1t.push_back(static_cast<double>(interactions) / walls[0]);
            rates_2t.push_back(static_cast<double>(interactions) / walls[1]);
            total_trials += trials;
            total_interactions += interactions;
            if (tracer.enabled()) {
                const Clock::time_point t0 = Clock::now();
                for (std::uint64_t t = 0; t < replays; ++t) {
                    RunOptions replay = options.base;
                    replay.seed = options.base.seed + t;
                    const RunResult result = traced_run(tracer, kernel, *protocol,
                                                        *initial[fevered - 4], replay, round_id);
                    oracle.record(result.interactions == summaries[0].records[t].interactions,
                                  "replayed trial " + std::to_string(t) + " of " + round_id +
                                      " diverged from measure_trials");
                }
                replay_s += seconds_between(t0, Clock::now());
            }
        }
        ++rounds;
        setups.push_back(timed_setup(tracer, setup));
    }
    pass.wall_s = seconds_between(start, Clock::now()) - replay_s;
    pass.units = rounds;
    pass.host_speed = host.factor();

    // The end-to-end metrics come from the 1-thread batches.  The 2-thread
    // rate is reported by name and through trials.scaling_eff, but it is not
    // steady enough to bound on this host: for minutes at a time two of its
    // vCPUs run no faster together than one (shared physical cores, by the
    // look of it), and over ten seeds its runs_per_s split between ~240/s
    // and ~145/s, the 1-thread rate, while the 1-thread rate spread 0.05.
    const double interactions_per_trial =
        static_cast<double>(total_interactions) / static_cast<double>(total_trials);
    const double interaction_rate = fast_rate(rates_1t);
    const double rate_1t = interaction_rate / interactions_per_trial;
    const double rate_2t = fast_rate(rates_2t) / interactions_per_trial;
    // Batch walls scaled to the pass's mean batch work.
    const double mean_batch = static_cast<double>(total_interactions) /
                              static_cast<double>(batch_interactions.size());
    std::vector<double> scaled_walls_ms;
    for (std::size_t b = 0; b < batch_walls_1t.size(); ++b)
        scaled_walls_ms.push_back(batch_walls_1t[b] * mean_batch / batch_interactions[b] * 1e3);
    pass.end_to_end.set("setup_s", median(setups), "s");
    pass.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MB");
    pass.end_to_end.set("runs_per_s", rate_1t, "1/s");
    pass.end_to_end.set("interactions_per_s", interaction_rate, "1/s");
    pass.end_to_end.set("eff_interactions_per_s",
                        interaction_rate * static_cast<double>(total_effective) /
                            static_cast<double>(total_interactions),
                        "1/s");
    pass.end_to_end.set("unit_ms", fast_time(scaled_walls_ms), "ms");
    pass.report.set("runs_per_s.1t", rate_1t, "1/s");
    pass.report.set("runs_per_s.2t", rate_2t, "1/s");
    kernel.fill(pass.layers);
    pass.layers.set("trials.scaling_eff", rate_2t / (2.0 * rate_1t), "ratio");
    return pass;
}

}  // namespace popbench
