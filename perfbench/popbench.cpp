// popbench: runs one benchmark workload and prints one JSON line.
//
//   popbench <workload> --seed N --seconds S --trace 0|1 [--tiny]
//            [--inject-wrong] [--spans PATH] [--daemon PATH] [--work-dir DIR]
//
// --trace 0 runs one untraced pass and reports the end-to-end metrics, each
// time scaled to the reference host's speed (HostSpeed).
// --trace 1 runs an untraced pass for half the time, then a traced pass over
// the same inputs and the same number of work units, and reports the
// per-layer metrics; its spans go to --spans.  perfbench/run.py builds this
// binary and turns its line into the benchmark's result.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "bench.h"
#include "service/json.h"

namespace {

using namespace popbench;

[[noreturn]] void usage(const std::string& message) {
    std::fprintf(stderr, "popbench: %s\n", message.c_str());
    std::fprintf(stderr,
                 "usage: popbench epidemic_large|predicate_compiled|trials_small|service_mix\n"
                 "                --seed N --seconds S --trace 0|1 [--tiny] [--inject-wrong]\n"
                 "                [--spans PATH] [--daemon PATH] [--work-dir DIR]\n");
    std::exit(2);
}

/// The first failures, quoted: enough to diagnose, bounded in size.
std::string quote_list(const std::vector<std::string>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size() && i < 20; ++i) {
        if (i != 0) out += ',';
        out += popproto::service::json_quote(items[i]);
    }
    return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
    const std::map<std::string, Workload> workloads = {
        {"epidemic_large", run_epidemic_large},
        {"predicate_compiled", run_predicate_compiled},
        {"trials_small", run_trials_small},
        {"service_mix", run_service_mix},
    };
    Config config;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(arg + ": missing value");
            return argv[++i];
        };
        try {
            if (arg == "--seed") config.seed = std::stoull(value());
            else if (arg == "--seconds") config.seconds = std::stod(value());
            else if (arg == "--trace") config.trace = std::stoi(value()) != 0;
            else if (arg == "--tiny") config.tiny = true;
            else if (arg == "--inject-wrong") config.inject_wrong = true;
            else if (arg == "--spans") config.spans_path = value();
            else if (arg == "--daemon") config.daemon_path = value();
            else if (arg == "--work-dir") config.work_dir = value();
            else if (!arg.empty() && arg[0] == '-') usage("unknown flag " + arg);
            else config.workload = arg;
        } catch (const std::logic_error&) {
            usage(arg + ": bad value");
        }
    }
    const auto found = workloads.find(config.workload);
    if (found == workloads.end()) usage("unknown workload '" + config.workload + "'");
    if (config.seconds <= 0.0) usage("--seconds must be positive");
    if (config.trace && config.spans_path.empty()) usage("--trace 1 needs --spans");

    Oracle oracle(config.inject_wrong);
    try {
        Metrics metrics;
        Metrics report;
        if (!config.trace) {
            Tracer off;
            PassResult pass = found->second(config, oracle, off, config.seconds, 0);
            pass.end_to_end.scale_times(pass.host_speed);
            pass.report.scale_times(pass.host_speed);
            pass.report.set("host_speed", pass.host_speed, "ratio");
            metrics = pass.end_to_end;
            report = pass.report;
        } else {
            Tracer off;
            const PassResult untraced =
                found->second(config, oracle, off, config.seconds / 2.0, 0);
            Tracer tracer;
            tracer.enable(Clock::now());
            PassResult traced;
            {
                SpanScope root(tracer, "pass", config.workload);
                traced = found->second(config, oracle, tracer, config.seconds / 2.0,
                                       untraced.units);
            }
            tracer.write(config.spans_path);
            metrics = traced.layers;
            metrics.set("telemetry.overhead_ratio", traced.wall_s / untraced.wall_s, "ratio");
        }
        std::printf("{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"build\":{\"compiler\":%s,"
                    "\"build_type\":%s,\"lto\":%s},\"attempted\":%llu,\"failed\":%llu,"
                    "\"failures\":%s,\"metrics\":%s,\"report\":%s}\n",
                    popproto::service::json_quote(config.workload).c_str(),
                    static_cast<unsigned long long>(config.seed), config.trace ? 1 : 0,
                    popproto::service::json_quote(POPBENCH_COMPILER).c_str(),
                    popproto::service::json_quote(POPBENCH_BUILD_TYPE).c_str(),
                    POPBENCH_LTO ? "true" : "false",
                    static_cast<unsigned long long>(oracle.attempted()),
                    static_cast<unsigned long long>(oracle.failed()),
                    quote_list(oracle.failures()).c_str(), metrics.to_json().c_str(),
                    report.to_json().c_str());
    } catch (const std::exception& error) {
        std::fprintf(stderr, "popbench: %s: %s\n", config.workload.c_str(), error.what());
        return 1;
    }
    return 0;
}
