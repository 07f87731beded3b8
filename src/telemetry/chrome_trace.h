// Chrome trace-event exporter: serializes a RunTelemetry span log as a JSON
// object trace ({"traceEvents": [...]}) loadable in chrome://tracing and
// Perfetto (ui.perfetto.dev).  Spans become "X" (complete) events with
// microsecond ts/dur on the driving thread's lane (tid 0, "run_loop");
// adaptive runs add an "engine segments" lane (tid 1).  Lanes are named via
// thread_name metadata events.

#ifndef POPPROTO_TELEMETRY_CHROME_TRACE_H
#define POPPROTO_TELEMETRY_CHROME_TRACE_H

#include <iosfwd>
#include <string>

#include "telemetry/telemetry.h"

namespace popproto::telemetry {

/// Writes the trace to `out`.  Throws std::runtime_error if the stream is in
/// a failed state afterwards.
void write_chrome_trace(std::ostream& out, const RunTelemetry& telemetry);

/// Writes the trace to `path`; throws std::runtime_error (message includes
/// the path) on open or write failure.
void write_chrome_trace_file(const std::string& path, const RunTelemetry& telemetry);

}  // namespace popproto::telemetry

#endif  // POPPROTO_TELEMETRY_CHROME_TRACE_H
