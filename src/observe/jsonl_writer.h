// Streaming JSONL trace export.
//
// A JsonlTraceWriter serializes every observed event as one JSON object per
// line, suitable for `jq`, pandas, or any plotting pipeline (see the
// trace_run example and the schema table in DESIGN.md):
//
//   {"event":"start","engine":"count_batch","population":1000,...}
//   {"event":"snapshot","t":4096,"counts":[993,7,0,0,0,0]}
//   {"event":"output_change","t":531}
//   {"event":"stop","reason":"silent","interactions":88211,...}
//
// Writes are mutex-guarded so a writer shared across measure_trials workers
// emits whole lines (runs interleave, single lines never tear); pair it
// with per-run TraceRecorders when per-trial ordering matters.

#ifndef POPPROTO_OBSERVE_JSONL_WRITER_H
#define POPPROTO_OBSERVE_JSONL_WRITER_H

#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>

#include "core/observer.h"
#include "core/simulator.h"

namespace popproto {

/// Escapes `text` as a JSON string literal (including the quotes): quotes,
/// backslashes and control characters.  The one escaper of the JSONL trace
/// and the service wire.
std::string json_quote(const std::string& text);

class JsonlTraceWriter final : public RunObserver {
public:
    /// Writes to a borrowed stream (e.g. std::cout or an ostringstream);
    /// the stream must outlive the writer.
    explicit JsonlTraceWriter(std::ostream& out);

    /// Opens `path` for writing (truncating); throws std::invalid_argument
    /// naming the path on failure.
    explicit JsonlTraceWriter(const std::string& path);

    /// Delivers each serialized line to `callback` instead of a stream —
    /// the service daemon uses this to fan one session's trace out to its
    /// wire subscribers.  The callback runs under the writer's mutex (so
    /// lines arrive whole and in order) on whichever thread produced the
    /// event; it must not call back into this writer.
    explicit JsonlTraceWriter(std::function<void(const std::string&)> callback);

    /// When false (default true), snapshot and stop events omit the
    /// `counts` array — useful for long runs where only the event timing
    /// matters.
    void set_write_counts(bool write_counts) { write_counts_ = write_counts; }

    void on_start(const RunStartInfo& info) override;
    void on_snapshot(std::uint64_t interaction_index,
                     const CountConfiguration& configuration) override;
    void on_output_change(std::uint64_t interaction_index) override;

    /// Emits an "engine_switch" event (adaptive runs only): the interaction
    /// index of the splice, both engines, and the monitor signal that
    /// triggered it.
    void on_engine_switch(const EngineSwitchInfo& info) override;

    /// Emits the "stop" event, preceded by a "telemetry" event when the run
    /// carried a RunTelemetry (RunOptions::telemetry was set).
    void on_stop(const RunResult& result, double wall_seconds) override;

private:
    /// Writes one line and verifies the stream took it; a failed stream
    /// (disk full, closed pipe) throws std::runtime_error naming the path
    /// instead of silently truncating the trace.
    void write_line(const std::string& line);

    std::ofstream owned_;
    std::ostream* out_;  // nullptr for the callback constructor
    std::function<void(const std::string&)> callback_;
    std::string path_;  // empty for the borrowed-stream constructor
    std::mutex mutex_;
    bool write_counts_ = true;
};

}  // namespace popproto

#endif  // POPPROTO_OBSERVE_JSONL_WRITER_H
