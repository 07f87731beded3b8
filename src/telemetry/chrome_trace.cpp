#include "telemetry/chrome_trace.h"

#include <fstream>
#include <ostream>
#include <stdexcept>

namespace popproto::telemetry {

namespace {

// The span log stores integer nanoseconds; the trace-event format wants
// microsecond doubles.  Emitting fixed 3-decimal microseconds keeps full
// nanosecond precision without float formatting surprises.
void write_us(std::ostream& out, std::uint64_t ns) {
    out << ns / 1000 << '.';
    const std::uint64_t frac = ns % 1000;
    out << static_cast<char>('0' + frac / 100) << static_cast<char>('0' + frac / 10 % 10)
        << static_cast<char>('0' + frac % 10);
}

void write_thread_name(std::ostream& out, std::uint32_t tid, const char* name) {
    out << R"({"ph":"M","pid":0,"tid":)" << tid
        << R"(,"name":"thread_name","args":{"name":")" << name << R"("}})";
}

}  // namespace

void write_chrome_trace(std::ostream& out, const RunTelemetry& telemetry) {
    out << "{\"displayTimeUnit\":\"ms\",\n\"otherData\":{"
        << "\"schema_version\":" << RunTelemetry::kSchemaVersion << ",\"engine\":\""
        << telemetry.engine << "\",\"population\":" << telemetry.population
        << ",\"interactions\":" << telemetry.interactions
        << ",\"spans_dropped\":" << telemetry.spans_dropped << "},\n\"traceEvents\":[\n";

    write_thread_name(out, 0, "run_loop");

    // Adaptive runs: one span per engine segment on a dedicated lane, laid
    // end-to-end by cumulative segment wall time (the segment log records
    // durations, not absolute stamps; the switch transfers between them are
    // the kEngineSwitch spans on the run_loop lane).
    if (!telemetry.engine_segments.empty()) {
        out << ",\n";
        write_thread_name(out, 1, "engine segments");
        std::uint64_t cursor_ns = 0;
        for (const auto& segment : telemetry.engine_segments) {
            out << ",\n";
            out << R"({"ph":"X","pid":0,"tid":1,"ts":)";
            write_us(out, cursor_ns);
            out << ",\"dur\":";
            write_us(out, segment.wall_ns);
            out << ",\"name\":\"" << segment.engine << "\",\"args\":{\"interactions\":"
                << segment.interactions << "}}";
            cursor_ns += segment.wall_ns;
        }
    }

    for (const TraceSpan& span : telemetry.spans) {
        out << ",\n";
        out << R"({"ph":"X","pid":0,"tid":0,"ts":)";
        write_us(out, span.begin_ns);
        out << ",\"dur\":";
        write_us(out, span.end_ns > span.begin_ns ? span.end_ns - span.begin_ns : 0);
        out << ",\"name\":\"" << phase_name(span.phase) << "\"}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("write_chrome_trace: stream write failed");
}

void write_chrome_trace_file(const std::string& path, const RunTelemetry& telemetry) {
    std::ofstream out(path);
    if (!out.is_open())
        throw std::runtime_error("write_chrome_trace_file: cannot open " + path);
    try {
        write_chrome_trace(out, telemetry);
    } catch (const std::runtime_error&) {
        throw std::runtime_error("write_chrome_trace_file: write failed for " + path);
    }
}

}  // namespace popproto::telemetry
