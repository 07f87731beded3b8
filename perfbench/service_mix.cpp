// service_mix: load from one process into the serve_popproto daemon over its
// Unix-socket JSONL wire.
//
// Phases: an open loop of Poisson arrivals of the session mix at a fixed low
// rate, then at a fixed high rate (each step >= 1000 tiny sessions), then a
// closed loop of tiny sessions that keeps a fixed window outstanding to price
// saturation throughput.  Every session's completion comes from its
// subscribe stream and its latency runs from when it was due to be sent.
//
// Threads (4): the generator (this thread) and one reader per connection —
// submit (acks), events (subscribe acks and session events), and control
// (status polls, suspend / resume, stats).

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "presburger/compiler.h"
#include "presburger/formula.h"
#include "presburger/parser.h"
#include "service/client.h"
#include "service/json.h"
#include "telemetry/telemetry.h"

namespace popbench {

using popproto::service::JsonValue;
using popproto::service::ServiceClient;

namespace {

// Open-loop arrival rates, set once as absolute numbers: about 30% and 70%
// of this mix's capacity, measured at ~220 sessions/s on a 4-core 2.1 GHz
// Xeon with the daemon at --workers 2 (above it the long sessions' latency
// grows without bound: the 1% long sessions need ~0.9 worker-seconds each).
constexpr double kRateLo = 65.0;
constexpr double kRateHi = 155.0;
constexpr double kPollRate = 100.0;   ///< status reads per second (lo / hi)
constexpr double kStatsPeriod = 0.02;  ///< stats samples (traced pass only)
constexpr std::size_t kSatWindow = 32;
constexpr std::size_t kSatChunk = 250;
constexpr int kSpawnRepeats = 3;  ///< before the phases; one more after lo and hi
/// HostSpeed samples: in the open-loop generator's idle gaps at most every
/// kHostPeriod, and kHostBurst of them on each side of the saturation phase,
/// whose closed loop has no idle gaps.
constexpr auto kHostPeriod = std::chrono::milliseconds(100);
constexpr auto kHostGap = std::chrono::milliseconds(5);
constexpr int kHostBurst = 20;
const char* const kLongPredicate = "20*x1 >= x0 + x1";

enum class Kind { kTiny, kLong, kSweep };

struct Session {
    Kind kind = Kind::kTiny;
    int phase = 0;  ///< 0 lo, 1 hi, 2 saturation
    std::string spec;
    std::uint64_t expected = 1;
    bool suspend = false;  ///< suspend once, let it spill, resume

    std::string id;
    Clock::time_point due{}, sent{}, acked{}, done{};
    bool finished = false;
    bool event_seen = false;
    bool suspend_sent = false, resume_sent = false;
    Clock::time_point suspend_at{};
    bool have_result = false;
    std::string stop_reason;
    std::optional<std::uint64_t> consensus;
    std::uint64_t interactions = 0, effective = 0, quanta = 0;
    std::uint64_t span = 0;  ///< traced: the phase span this session belongs to
};

class Wire {
public:
    explicit Wire(const std::string& path) : client_(ServiceClient::connect_unix(path)) {}
    void send(const std::string& line) {
        const std::lock_guard<std::mutex> lock(mutex_);
        client_.send_line(line);
    }
    /// Reader thread only.
    std::string read() { return client_.read_line(); }

private:
    std::mutex mutex_;
    ServiceClient client_;
};

/// The daemon child process; killed and reaped on destruction.
class Daemon {
public:
    Daemon(const std::string& binary, const std::string& socket, const std::string& spill) {
        std::filesystem::remove_all(spill);
        std::filesystem::create_directories(spill);
        std::vector<std::string> args = {binary,        "--socket", socket, "--spill-dir",
                                         spill,         "--workers", "2",   "--max-resident",
                                         "0",           "--max-queued", "1024", "--quiet"};
        std::vector<char*> argv;
        for (std::string& arg : args) argv.push_back(arg.data());
        argv.push_back(nullptr);
        pid_ = ::fork();
        if (pid_ < 0) throw std::runtime_error("cannot fork for " + binary);
        if (pid_ == 0) {
            // The daemon dies with the benchmark, and its stdout goes to
            // stderr: stdout carries only the result line.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            ::dup2(STDERR_FILENO, STDOUT_FILENO);
            ::execv(binary.c_str(), argv.data());
            ::_exit(127);
        }
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    int pid() const { return pid_; }

    /// Blocks until the daemon answers ping on `socket`.
    void wait_ready(const std::string& socket) {
        const Clock::time_point start = Clock::now();
        for (;;) {
            try {
                ServiceClient client = ServiceClient::connect_unix(socket);
                const JsonValue reply =
                    popproto::service::parse_json(client.request("{\"cmd\":\"ping\"}"));
                if (const JsonValue* ok = reply.find("ok"); ok != nullptr && ok->as_bool("ok"))
                    return;
            } catch (const std::exception&) {
            }
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("serve_popproto exited during start-up");
            }
            if (seconds_between(start, Clock::now()) > 30.0)
                throw std::runtime_error("serve_popproto did not answer ping within 30 s");
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    void stop() {
        if (pid_ <= 0) return;
        ::kill(pid_, SIGKILL);
        int status = 0;
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        pid_ = -1;
    }

private:
    pid_t pid_ = -1;
};

std::string field_string(const JsonValue& value, const char* key) {
    const JsonValue* found = value.find(key);
    return found != nullptr && found->is_string() ? found->as_string(key) : std::string();
}

/// The session index carried in an "i:<index>" request id.
std::size_t index_of(const JsonValue& reply) {
    const std::string id = field_string(reply, "id");
    return id.size() > 2 ? std::stoull(id.substr(2)) : static_cast<std::size_t>(-1);
}

std::uint64_t field_u64(const JsonValue& value, const char* key) {
    const JsonValue* found = value.find(key);
    return found != nullptr && !found->is_null() ? found->as_u64(key) : 0;
}

/// Rebuilds the RunTelemetry fields KernelTotals reads from a session's
/// "telemetry" event (DESIGN.md "Export schemas").
popproto::telemetry::RunTelemetry telemetry_from_event(const JsonValue& event) {
    popproto::telemetry::RunTelemetry data;
    data.engine = field_string(event, "engine");
    data.wall_ns = field_u64(event, "wall_ns");
    data.interactions = field_u64(event, "interactions");
    data.effective_interactions = field_u64(event, "effective_interactions");
    data.super_steps = field_u64(event, "super_steps");
    data.null_interactions_skipped = field_u64(event, "null_interactions_skipped");
    data.engine_switches = field_u64(event, "engine_switches");
    if (const JsonValue* phases = event.find("phases"); phases != nullptr) {
        for (const auto& [name, stat] : phases->as_object("phases")) {
            for (std::size_t p = 0; p < popproto::telemetry::kNumPhases; ++p) {
                const auto phase = static_cast<popproto::telemetry::Phase>(p);
                if (name != popproto::telemetry::phase_name(phase)) continue;
                data.phases[p].total_ns = field_u64(stat, "ns");
                data.phases[p].calls = field_u64(stat, "calls");
            }
        }
    }
    if (const JsonValue* segments = event.find("engine_segments"); segments != nullptr) {
        for (const JsonValue& segment : segments->as_array("engine_segments"))
            data.engine_segments.push_back({field_string(segment, "engine"),
                                            field_u64(segment, "interactions"),
                                            field_u64(segment, "wall_ns")});
    }
    return data;
}

class ServiceMix {
public:
    ServiceMix(const Config& config, Oracle& oracle, Tracer& tracer)
        : config_(config), oracle_(oracle), tracer_(tracer), seeds_(config.seed),
          formula_(popproto::parse_formula(kLongPredicate)), host_(tracer) {}

    PassResult run();

private:
    void plan_phase(int phase, std::size_t count, bool mixed);
    std::string next_spec(Kind kind, std::uint64_t& expected, bool traced);
    void open_loop(int phase, double rate);
    double closed_loop();
    void wait_finished(std::size_t first, std::size_t last);

    void submit(std::size_t index);
    void read_submit_acks();
    void read_events();
    void read_control();
    void on_terminal(std::size_t index, const std::string& state, Clock::time_point now);
    void finish(std::size_t index, bool ok, const std::string& what);  // lock held
    void maybe_resume(std::size_t index);                               // lock held
    /// Control requests are queued under the lock and sent after it is
    /// released, so no thread blocks on a socket while holding it.
    void queue_control(std::string line) { pending_control_.push_back(std::move(line)); }
    void flush_control();

    const Config& config_;
    Oracle& oracle_;
    Tracer& tracer_;
    SeedStream seeds_;
    const popproto::Formula formula_;

    std::unique_ptr<Wire> submit_wire_, event_wire_, control_wire_;

    std::mutex mutex_;
    std::condition_variable changed_;
    /// Planned in full before the readers start and never resized after.
    std::vector<Session> sessions_;
    std::size_t phase_first_[4] = {};  ///< phase p is [phase_first_[p], phase_first_[p + 1])
    std::map<std::string, std::size_t> by_id_;
    std::size_t outstanding_ = 0;
    std::vector<std::size_t> block_;  ///< remaining kinds of the current mix block
    std::vector<double> shares_;      ///< remaining fever shares for long sessions
    std::vector<double> status_rtt_ms_, suspend_resume_ms_, gen_lag_ms_;
    std::map<std::string, Clock::time_point> control_sent_;
    std::vector<std::string> pending_control_;
    std::uint64_t refused_ = 0, queue_depth_max_ = 0, evictions_ = 0, faults_ = 0;
    bool final_stats_ = false;
    KernelTotals kernel_;
    HostSpeed host_;
};

// Mix blocks of 100 sessions in seeded order: 1 long predicate (every other
// one suspended and resumed), 1 sweep-model epidemic, 98 tiny epidemics.
std::string ServiceMix::next_spec(Kind kind, std::uint64_t& expected, bool traced) {
    const std::string seed = std::to_string(seeds_.next() >> 12);
    const std::string telemetry = traced ? ",\"telemetry\":true" : "";
    switch (kind) {
        case Kind::kTiny:
            expected = 1;
            return "\"protocol\":\"epidemic\",\"counts\":[63,1],\"seed\":" + seed + telemetry;
        case Kind::kSweep: {
            const std::string counts = config_.tiny ? "[127,1]" : "[1023,1]";
            expected = 1;
            return "\"protocol\":\"epidemic\",\"model\":\"sweep\",\"counts\":" + counts +
                   ",\"seed\":" + seed + telemetry;
        }
        case Kind::kLong: {
            // The predicate_compiled share ladder, cycled in seeded order so
            // every phase sees the same mix of long-session lengths.
            if (shares_.empty()) {
                shares_ = {0.035, 0.04, 0.045, 0.055, 0.06, 0.065};
                seeds_.shuffle(shares_);
            }
            const double share = shares_.back();
            shares_.pop_back();
            const std::uint64_t n = config_.tiny ? 512 : std::uint64_t{1} << 14;
            const std::uint64_t x1 = static_cast<std::uint64_t>(share * static_cast<double>(n));
            expected = formula_.evaluate({static_cast<std::int64_t>(n - x1),
                                          static_cast<std::int64_t>(x1)})
                           ? 1
                           : 0;
            return "\"protocol\":\"predicate\",\"predicate\":\"" + std::string(kLongPredicate) +
                   "\",\"counts\":[" + std::to_string(n - x1) + "," + std::to_string(x1) +
                   "],\"seed\":" + seed + telemetry;
        }
    }
    return {};
}

void ServiceMix::plan_phase(int phase, std::size_t count, bool mixed) {
    phase_first_[phase] = sessions_.size();
    bool suspend_next = true;
    for (std::size_t k = 0; k < count; ++k) {
        if (!mixed) block_.assign(1, 0);
        if (block_.empty()) {
            block_.assign(100, 0);
            block_[0] = 1;  // long
            block_[1] = 2;  // sweep
            seeds_.shuffle(block_);
        }
        Session session;
        session.kind = block_.back() == 1   ? Kind::kLong
                       : block_.back() == 2 ? Kind::kSweep
                                            : Kind::kTiny;
        block_.pop_back();
        session.phase = phase;
        std::uint64_t expected = 1;
        session.spec = next_spec(session.kind, expected, tracer_.enabled());
        session.expected = oracle_.expect(expected);
        if (session.kind == Kind::kLong) {
            session.suspend = suspend_next;
            suspend_next = !suspend_next;
        }
        sessions_.push_back(std::move(session));
    }
    phase_first_[phase + 1] = sessions_.size();
}

void ServiceMix::submit(std::size_t index) {
    std::string line;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        Session& session = sessions_[index];
        session.sent = Clock::now();
        ++outstanding_;
        line = "{\"cmd\":\"submit\",\"id\":\"i:" + std::to_string(index) + "\"," +
               session.spec + "}";
    }
    submit_wire_->send(line);
}

void ServiceMix::finish(std::size_t index, bool ok, const std::string& what) {
    Session& session = sessions_[index];
    if (session.finished) return;
    session.finished = true;
    if (session.done == Clock::time_point{}) session.done = Clock::now();
    --outstanding_;
    oracle_.record(ok, what);
    if (tracer_.enabled()) {
        const std::uint64_t span = tracer_.record("service.session", session.span, 1,
                                                  tracer_.to_ns(session.due),
                                                  tracer_.to_ns(session.done), session.id);
        if (session.acked != Clock::time_point{})
            tracer_.record("service.wire.submit", span, 1, tracer_.to_ns(session.sent),
                           tracer_.to_ns(session.acked), session.id);
    }
    changed_.notify_all();
}

void ServiceMix::maybe_resume(std::size_t index) {
    Session& session = sessions_[index];
    if (session.resume_sent || session.finished) return;
    session.resume_sent = true;
    queue_control("{\"cmd\":\"resume\",\"id\":\"r:" + std::to_string(index) +
                  "\",\"session\":\"" + session.id + "\"}");
}

void ServiceMix::flush_control() {
    std::vector<std::string> lines;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        lines.swap(pending_control_);
    }
    for (const std::string& line : lines) control_wire_->send(line);
}

void ServiceMix::read_submit_acks() {
    try {
        for (;;) {
            const std::string line = submit_wire_->read();
            const Clock::time_point now = Clock::now();
            const JsonValue reply = popproto::service::parse_json(line);
            const std::size_t index = index_of(reply);
            std::unique_lock<std::mutex> lock(mutex_);
            if (index >= sessions_.size()) continue;
            Session& session = sessions_[index];
            session.acked = now;
            const JsonValue* ok = reply.find("ok");
            if (ok == nullptr || !ok->as_bool("ok")) {
                const bool refused = field_string(reply, "code") == "queue_full";
                if (refused) ++refused_;
                finish(index, false,
                       std::string(refused ? "submit refused (queue_full)" : "submit failed") +
                           ": " + field_string(reply, "error"));
                continue;
            }
            session.id = field_string(reply, "session");
            by_id_[session.id] = index;
            lock.unlock();
            event_wire_->send("{\"cmd\":\"subscribe\",\"id\":\"i:" + std::to_string(index) +
                              "\",\"session\":\"" + session.id + "\"}");
        }
    } catch (const std::exception&) {
        // The daemon closed the connection: the pass is over.
    }
}

void ServiceMix::on_terminal(std::size_t index, const std::string& state, Clock::time_point now) {
    Session& session = sessions_[index];
    if (session.finished || session.done != Clock::time_point{}) return;
    session.done = now;
    if (state != "done") {
        finish(index, false, "session " + session.id + " ended " + state);
        return;
    }
    if (session.have_result && session.kind != Kind::kLong) {
        finish(index,
               session.stop_reason == "silent" && session.consensus == session.expected,
               "session " + session.id + " did not reach the expected consensus");
        return;
    }
    // Consensus (and, for long sessions, the quanta count) from status.
    control_sent_["f:" + std::to_string(index)] = Clock::now();
    queue_control("{\"cmd\":\"status\",\"id\":\"f:" + std::to_string(index) +
                  "\",\"session\":\"" + session.id + "\"}");
}

void ServiceMix::read_events() {
    try {
        for (;;) {
            const std::string line = event_wire_->read();
            const Clock::time_point now = Clock::now();
            const JsonValue message = popproto::service::parse_json(line);
            const std::string id = field_string(message, "session");
            const std::string event = field_string(message, "event");
            if (event.empty()) {
                // A subscribe ack; a refused subscribe fails its session.
                const JsonValue* ok = message.find("ok");
                if (ok != nullptr && !ok->as_bool("ok")) {
                    const std::lock_guard<std::mutex> lock(mutex_);
                    const std::size_t index = index_of(message);
                    if (index < sessions_.size())
                        finish(index, false, "subscribe failed: " + field_string(message, "error"));
                }
                continue;
            }
            // continue leaves this locked block; the queued control
            // requests go out once the lock is released.
            do {
                const std::lock_guard<std::mutex> lock(mutex_);
                const auto found = by_id_.find(id);
                if (found == by_id_.end()) continue;
                const std::size_t index = found->second;
                Session& session = sessions_[index];
                if (event == "state") {
                    const std::string state = field_string(message, "state");
                    if (state == "suspended") maybe_resume(index);
                    else if (state == "done" || state == "failed" || state == "cancelled")
                        on_terminal(index, state, now);
                } else if (event == "stop") {
                    session.have_result = true;
                    session.stop_reason = field_string(message, "reason");
                    const JsonValue* c = message.find("consensus");
                    if (c != nullptr && !c->is_null()) session.consensus = c->as_u64("consensus");
                    session.interactions = field_u64(message, "interactions");
                    session.effective = field_u64(message, "effective_interactions");
                } else if (event == "telemetry") {
                    kernel_.add(telemetry_from_event(message));
                } else if (!session.event_seen) {
                    // First sign the session has run a quantum: suspend it now,
                    // so the suspension holds a checkpoint that spills to disk.
                    session.event_seen = true;
                    if (session.suspend && !session.suspend_sent) {
                        session.suspend_sent = true;
                        session.suspend_at = now;
                        queue_control("{\"cmd\":\"suspend\",\"id\":\"s:" + std::to_string(index) +
                                      "\",\"session\":\"" + session.id + "\"}");
                    }
                }
            } while (false);
            flush_control();
        }
    } catch (const std::exception&) {
    }
}

void ServiceMix::read_control() {
    try {
        for (;;) {
            const std::string line = control_wire_->read();
            const Clock::time_point now = Clock::now();
            const JsonValue reply = popproto::service::parse_json(line);
            const std::string tag = field_string(reply, "id");
            const JsonValue* ok = reply.find("ok");
            const bool success = ok != nullptr && ok->as_bool("ok");
            // continue leaves this locked block; the queued control
            // requests go out once the lock is released.
            do {
                const std::lock_guard<std::mutex> lock(mutex_);
                const auto sent = control_sent_.find(tag);
                if (sent != control_sent_.end()) {
                    if (tag[0] == 'p') {
                        status_rtt_ms_.push_back(seconds_between(sent->second, now) * 1e3);
                        if (tracer_.enabled())
                            tracer_.record("service.wire.status", tracer_.current(), 2,
                                           tracer_.to_ns(sent->second), tracer_.to_ns(now));
                    }
                    control_sent_.erase(sent);
                }
                if (tag.size() < 3) continue;
                if (tag[0] == 'x') {
                    if (const JsonValue* stats = reply.find("stats"); stats != nullptr) {
                        queue_depth_max_ =
                            std::max(queue_depth_max_, field_u64(*stats, "queue_depth"));
                        evictions_ = field_u64(*stats, "evictions");
                        faults_ = field_u64(*stats, "faults");
                    }
                    if (tag == "x:final") final_stats_ = true;
                    changed_.notify_all();
                    continue;
                }
                const std::size_t index = std::stoull(tag.substr(2));
                if (index >= sessions_.size()) continue;
                Session& session = sessions_[index];
                switch (tag[0]) {
                    case 's':  // suspend ack: resume once the suspension has landed
                        if (!success) break;  // already terminal: nothing to resume
                        control_sent_["w:" + std::to_string(index)] = now;
                        queue_control("{\"cmd\":\"status\",\"id\":\"w:" + std::to_string(index) +
                                      "\",\"session\":\"" + session.id + "\"}");
                        break;
                    case 'w': {
                        const std::string state = field_string(reply, "state");
                        if (state == "suspended" || state == "evicted") maybe_resume(index);
                        break;
                    }
                    case 'r':
                        if (success)
                            suspend_resume_ms_.push_back(
                                seconds_between(session.suspend_at, now) * 1e3);
                        break;
                    case 'f': {
                        if (!success) {
                            finish(index, false, "status failed: " + field_string(reply, "error"));
                            break;
                        }
                        const JsonValue* c = reply.find("consensus");
                        session.consensus.reset();
                        if (c != nullptr && !c->is_null())
                            session.consensus = c->as_u64("consensus");
                        session.stop_reason = field_string(reply, "stop_reason");
                        session.interactions = field_u64(reply, "interactions");
                        session.effective = field_u64(reply, "effective_interactions");
                        session.quanta = field_u64(reply, "quanta");
                        finish(index,
                               field_string(reply, "state") == "done" &&
                                   session.stop_reason == "silent" &&
                                   session.consensus == session.expected,
                               "session " + session.id + " (" + session.spec +
                                   ") did not reach the expected consensus " +
                                   std::to_string(session.expected));
                        break;
                    }
                    default:
                        break;
                }
            } while (false);
            flush_control();
        }
    } catch (const std::exception&) {
    }
}

void ServiceMix::wait_finished(std::size_t first, std::size_t last) {
    std::unique_lock<std::mutex> lock(mutex_);
    const bool all = changed_.wait_for(lock, std::chrono::seconds(60), [&] {
        for (std::size_t i = first; i < last; ++i) {
            if (!sessions_[i].finished) return false;
        }
        return true;
    });
    if (!all) {
        for (std::size_t i = first; i < last; ++i)
            finish(i, false, "session " + sessions_[i].id + " did not finish within 60 s");
    }
}

void ServiceMix::open_loop(int phase, double rate) {
    const std::size_t first = phase_first_[phase], last = phase_first_[phase + 1];
    const std::uint64_t phase_span = tracer_.enabled() ? tracer_.current() : 0;
    // Arrival schedule: Poisson submits merged with Poisson status reads
    // (and, when traced, periodic stats samples).
    struct Arrival {
        double at;
        int what;  ///< 0 submit, 1 status read, 2 stats sample
        std::size_t index;
    };
    std::vector<Arrival> schedule;
    double t = 0.0;
    for (std::size_t i = first; i < last; ++i) {
        t += -std::log(1.0 - seeds_.unit()) / rate;
        schedule.push_back({t, 0, i});
    }
    const double end = t;
    for (double p = -std::log(1.0 - seeds_.unit()) / kPollRate; p < end;
         p += -std::log(1.0 - seeds_.unit()) / kPollRate)
        schedule.push_back({p, 1, static_cast<std::size_t>(seeds_.next() >> 1)});
    if (tracer_.enabled()) {
        for (double s = kStatsPeriod; s < end; s += kStatsPeriod) schedule.push_back({s, 2, 0});
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const Arrival& a, const Arrival& b) { return a.at < b.at; });

    const Clock::time_point start = Clock::now();
    Clock::time_point last_host_sample = start;
    std::uint64_t polls = 0;
    std::size_t submitted = first;
    for (const Arrival& arrival : schedule) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(arrival.at));
        const Clock::time_point now = Clock::now();
        if (due - now > kHostGap && now - last_host_sample >= kHostPeriod) {
            host_.sample();
            last_host_sample = now;
        }
        std::this_thread::sleep_until(due);
        if (arrival.what == 0) {
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                sessions_[arrival.index].due = due;
                sessions_[arrival.index].span = phase_span;
                gen_lag_ms_.push_back(seconds_between(due, Clock::now()) * 1e3);
            }
            submit(arrival.index);
            ++submitted;
        } else {
            std::string line;
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                if (arrival.what == 1 && submitted > first) {
                    // A random session of this phase that is still outstanding.
                    for (int attempt = 0; attempt < 8 && line.empty(); ++attempt) {
                        const std::size_t i =
                            first + (arrival.index + attempt * 7919) % (submitted - first);
                        const Session& session = sessions_[i];
                        if (session.id.empty() || session.finished) continue;
                        const std::string tag = "p:" + std::to_string(polls++);
                        control_sent_[tag] = Clock::now();
                        line = "{\"cmd\":\"status\",\"id\":\"" + tag + "\",\"session\":\"" +
                               session.id + "\"}";
                    }
                } else if (arrival.what == 2) {
                    line = "{\"cmd\":\"stats\",\"id\":\"x:" + std::to_string(polls++) + "\"}";
                }
            }
            if (!line.empty()) control_wire_->send(line);
        }
    }
    wait_finished(first, last);
}

/// Returns the saturation throughput.  A closed loop submits the next
/// session as soon as one completes, so once the window is full each submit
/// stands for one completion; the rate is the fast decile over chunks of
/// kSatChunk submits.
double ServiceMix::closed_loop() {
    const std::size_t first = phase_first_[2], last = phase_first_[3];
    const std::uint64_t phase_span = tracer_.enabled() ? tracer_.current() : 0;
    for (std::size_t i = first; i < last; ++i) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            changed_.wait(lock, [&] { return outstanding_ < kSatWindow; });
            sessions_[i].due = Clock::now();
            sessions_[i].span = phase_span;
        }
        submit(i);
    }
    std::vector<double> rates;
    for (std::size_t c = first + kSatWindow; c + kSatChunk < last; c += kSatChunk) {
        rates.push_back(static_cast<double>(kSatChunk) /
                        seconds_between(sessions_[c].due, sessions_[c + kSatChunk].due));
    }
    wait_finished(first, last);
    return fast_rate(rates);
}

PassResult ServiceMix::run() {
    PassResult pass;
    zero_layers(pass.layers);
    if (config_.daemon_path.empty()) throw std::runtime_error("service_mix needs --daemon");
    std::filesystem::create_directories(config_.work_dir);
    const std::string tag = std::to_string(::getpid());
    const std::string socket = config_.work_dir + "/svc-" + tag + ".sock";
    const std::string spill = config_.work_dir + "/spill-" + tag;

    // Set-up: start the daemon until it answers ping.  Timed several times
    // before the phases, and once more after lo and after hi with a second,
    // throwaway daemon, so the median sees the host the phases see.
    std::vector<double> setups;
    const auto spawn = [&](const std::string& suffix) {
        SpanScope span(tracer_, "service.spawn_daemon");
        const Clock::time_point t0 = Clock::now();
        auto started = std::make_unique<Daemon>(config_.daemon_path, socket + suffix,
                                                spill + suffix);
        started->wait_ready(socket + suffix);
        setups.push_back(seconds_between(t0, Clock::now()));
        return started;
    };
    const auto probe_spawn = [&] {
        spawn(".probe")->stop();
        std::filesystem::remove_all(spill + ".probe");
        std::filesystem::remove(socket + ".probe");
    };
    std::unique_ptr<Daemon> daemon;
    for (int k = 0; k < kSpawnRepeats; ++k) {
        daemon.reset();
        daemon = spawn("");
    }

    // The long sessions' predicate, compiled here as the daemon compiles it
    // on submit (and again when an evicted session faults back in): the
    // presburger layer's share of a long session.
    double parse_ms = 0.0, compile_ms = 0.0;
    std::size_t states = 0;
    {
        SpanScope span(tracer_, "presburger.parse_formula");
        const Clock::time_point t0 = Clock::now();
        (void)popproto::parse_formula(kLongPredicate);
        parse_ms = seconds_between(t0, Clock::now()) * 1e3;
    }
    {
        SpanScope span(tracer_, "presburger.compile_formula");
        const Clock::time_point t0 = Clock::now();
        states = popproto::compile_formula(formula_, 2)->num_states();
        compile_ms = seconds_between(t0, Clock::now()) * 1e3;
    }
    {
        SpanScope span(tracer_, "service.plan");
        plan_phase(0, config_.tiny ? 120 : 1030, true);
        plan_phase(1, config_.tiny ? 120 : 1030, true);
        plan_phase(2, config_.tiny ? 1100 : 12000, false);
    }
    std::vector<std::thread> readers;
    {
        SpanScope span(tracer_, "service.connect");
        submit_wire_ = std::make_unique<Wire>(socket);
        event_wire_ = std::make_unique<Wire>(socket);
        control_wire_ = std::make_unique<Wire>(socket);
    }
    readers.emplace_back([this] { read_submit_acks(); });
    readers.emplace_back([this] { read_events(); });
    readers.emplace_back([this] { read_control(); });

    const Clock::time_point start = Clock::now();
    double sat_rate = 0.0;
    try {
        {
            SpanScope span(tracer_, "service.phase.lo");
            open_loop(0, kRateLo);
        }
        probe_spawn();
        {
            SpanScope span(tracer_, "service.phase.hi");
            open_loop(1, kRateHi);
        }
        probe_spawn();
        for (int k = 0; k < kHostBurst; ++k) host_.sample();
        {
            SpanScope span(tracer_, "service.phase.saturation");
            sat_rate = closed_loop();
        }
        for (int k = 0; k < kHostBurst; ++k) host_.sample();
        {
            SpanScope span(tracer_, "service.stats");
            control_wire_->send("{\"cmd\":\"stats\",\"id\":\"x:final\"}");
            std::unique_lock<std::mutex> lock(mutex_);
            changed_.wait_for(lock, std::chrono::seconds(30), [&] { return final_stats_; });
        }
    } catch (...) {
        daemon->stop();
        for (std::thread& reader : readers) reader.join();
        throw;
    }
    pass.wall_s = seconds_between(start, Clock::now());
    const double daemon_rss = peak_rss_mb(daemon->pid());
    {
        SpanScope span(tracer_, "service.stop_daemon");
        daemon->stop();
        for (std::thread& reader : readers) reader.join();
        std::filesystem::remove_all(spill);
        std::filesystem::remove(socket);
    }

    std::vector<double> tiny_ms[2], long_ms, submit_tiny, submit_long, quanta;
    std::uint64_t sat_inter = 0, sat_eff = 0, sat_sessions = 0;
    for (const Session& session : sessions_) {
        const double latency = seconds_between(session.due, session.done) * 1e3;
        const double rtt = seconds_between(session.sent, session.acked) * 1e3;
        if (session.phase < 2 && session.kind == Kind::kTiny)
            tiny_ms[session.phase].push_back(latency);
        if (session.phase < 2 && session.kind == Kind::kLong && !session.suspend)
            long_ms.push_back(latency);
        if (session.kind == Kind::kTiny) submit_tiny.push_back(rtt);
        if (session.kind == Kind::kLong) {
            submit_long.push_back(rtt);
            quanta.push_back(static_cast<double>(session.quanta));
        }
        if (session.phase == 2) {
            sat_inter += session.interactions;
            sat_eff += session.effective;
            ++sat_sessions;
        }
    }
    pass.end_to_end.set("setup_s", median(setups), "s");
    pass.end_to_end.set("peak_rss_mb", daemon_rss, "MB");
    pass.end_to_end.set("runs_per_s", sat_rate, "1/s");
    // Saturation sessions/s times the mean work of a saturation session.
    const double per_session = sat_rate / static_cast<double>(sat_sessions);
    pass.end_to_end.set("interactions_per_s", static_cast<double>(sat_inter) * per_session, "1/s");
    pass.end_to_end.set("eff_interactions_per_s", static_cast<double>(sat_eff) * per_session,
                        "1/s");
    pass.end_to_end.set("unit_ms", fast_time(tiny_ms[0]), "ms");
    pass.report.set("svc.lo.p50_ms", median(tiny_ms[0]), "ms");
    pass.report.set("svc.lo.p99_ms", percentile(tiny_ms[0], 0.99), "ms");
    pass.report.set("svc.hi.p50_ms", median(tiny_ms[1]), "ms");
    pass.report.set("svc.hi.p99_ms", percentile(tiny_ms[1], 0.99), "ms");
    pass.report.set("svc.long.p50_ms", median(long_ms), "ms");
    pass.report.set("svc.sat_sessions_per_s", sat_rate, "1/s");
    pass.report.set("svc.lo.samples", static_cast<double>(tiny_ms[0].size()), "count");
    pass.report.set("svc.hi.samples", static_cast<double>(tiny_ms[1].size()), "count");

    pass.layers.set("presburger.parse_ms", parse_ms, "ms");
    pass.layers.set("presburger.compile_ms", compile_ms, "ms");
    pass.layers.set("presburger.num_states", static_cast<double>(states), "count");
    pass.layers.set("service.submit_rtt_ms.tiny.p50", median(submit_tiny), "ms");
    pass.layers.set("service.submit_rtt_ms.predicate.p50", median(submit_long), "ms");
    pass.layers.set("service.status_rtt_ms.p50", median(status_rtt_ms_), "ms");
    pass.layers.set("service.queue_depth_max", static_cast<double>(queue_depth_max_), "count");
    pass.layers.set("service.quanta_per_long_session",
                    quanta.empty() ? 0.0 : [&] {
                        double sum = 0.0;
                        for (const double q : quanta) sum += q;
                        return sum / static_cast<double>(quanta.size());
                    }(),
                    "count");
    pass.layers.set("service.evictions", static_cast<double>(evictions_), "count");
    pass.layers.set("service.faults", static_cast<double>(faults_), "count");
    pass.layers.set("service.suspend_resume_ms", median(suspend_resume_ms_), "ms");
    pass.layers.set("service.refused", static_cast<double>(refused_), "count");
    pass.layers.set("bench.gen_lag_p99_ms", percentile(gen_lag_ms_, 0.99), "ms");
    kernel_.fill(pass.layers);
    pass.units = 1;
    pass.host_speed = host_.factor();
    return pass;
}

}  // namespace

PassResult run_service_mix(const Config& config, Oracle& oracle, Tracer& tracer, double,
                           std::uint64_t) {
    ServiceMix mix(config, oracle, tracer);
    return mix.run();
}

}  // namespace popbench
