// popctl: command-line client for the serve_popproto daemon.
//
//   popctl [--socket PATH | --tcp HOST:PORT] <command> [args]
//
//   submit [flags]     submit a run; prints the session id
//       --protocol P       epidemic (default) | counting | majority |
//                          predicate
//       --predicate F      Presburger predicate source (protocol predicate)
//       --threshold K      counting threshold            (default 5)
//       --counts A,B,...   agents per input symbol       (required)
//       --engine E         auto (default) | agent | batch | collapsed
//       --model M          uniform (default) | round_robin | sweep |
//                          adversarial | dynamic_graph | grid_mobility
//       --probe N          adversarial null-interaction look-ahead
//       --phases A,B,...   dynamic_graph phase topologies (complete,
//                          ring, line, star)
//       --phase-length N   dynamic_graph interactions per phase (0 = 4n)
//       --torus WxH        grid_mobility torus dimensions (default auto)
//       --radius R         grid_mobility contact radius   (default 1)
//       --seed S           RNG seed                      (default 1)
//       --budget B         interaction budget (0 = default_budget(n))
//       --quantum N        work-quantum override
//       --weight W         scheduler weight              (default 1)
//       --snapshot-every N stream snapshots to subscribers
//       --telemetry        stream the final telemetry event too
//       --name NAME        label echoed in status output
//   status  ID         one status line (JSON)
//   list               every session (JSON)
//   suspend ID | resume ID | cancel ID
//   watch   ID         subscribe and stream events until the session
//                      settles (terminal state or stop event)
//   wait    ID         poll status until terminal; prints the final status
//   stats              daemon aggregate counters (JSON)
//   ping               liveness check
//   shutdown           ask the daemon to drain and exit
//
// Exit status: 0 on success ("ok":true), 1 on a daemon error response or
// connection failure, 2 on usage errors.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/client.h"
#include "service/json.h"

namespace {

using popproto::service::JsonValue;
using popproto::service::ServiceClient;
using popproto::service::json_quote;
using popproto::service::parse_json;

[[noreturn]] void usage_error(const std::string& message) {
    std::fprintf(stderr, "popctl: %s\n", message.c_str());
    std::fprintf(stderr,
                 "usage: popctl [--socket PATH | --tcp HOST:PORT] "
                 "submit|status|list|suspend|resume|cancel|watch|wait|stats|ping|shutdown "
                 "[args]\n");
    std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const std::string& text) {
    try {
        std::size_t end = 0;
        const unsigned long long value = std::stoull(text, &end);
        if (end != text.size()) throw std::invalid_argument(text);
        return value;
    } catch (const std::exception&) {
        usage_error(std::string(flag) + ": not a number: " + text);
    }
}

/// True when the response line says "ok":true (cheap but exact: responses
/// are objects built by wire.cpp with "ok" first).
bool response_ok(const std::string& line) {
    try {
        const JsonValue parsed = parse_json(line);
        const JsonValue* ok = parsed.find("ok");
        return ok != nullptr && ok->as_bool("'ok'");
    } catch (const std::exception&) {
        return false;
    }
}

int print_response(const std::string& line) {
    std::printf("%s\n", line.c_str());
    return response_ok(line) ? 0 : 1;
}

std::string string_member(const JsonValue& object, const char* key) {
    const JsonValue* value = object.find(key);
    return value != nullptr && value->is_string() ? value->as_string(key) : std::string();
}

bool state_is_terminal(const std::string& state) {
    return state == "done" || state == "failed" || state == "cancelled";
}

}  // namespace

int main(int argc, char** argv) {
    std::string socket_path = "popproto.sock";
    std::string tcp_host;
    int tcp_port = 0;

    int i = 1;
    const auto next_value = [&](const std::string& flag) -> std::string {
        if (i + 1 >= argc) usage_error(flag + ": missing value");
        return argv[++i];
    };
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket") {
            socket_path = next_value(arg);
        } else if (arg == "--tcp") {
            const std::string endpoint = next_value(arg);
            const std::size_t colon = endpoint.rfind(':');
            if (colon == std::string::npos) usage_error("--tcp: expected HOST:PORT");
            tcp_host = endpoint.substr(0, colon);
            tcp_port = static_cast<int>(parse_u64("--tcp", endpoint.substr(colon + 1)));
            socket_path.clear();
        } else {
            break;
        }
    }
    if (i >= argc) usage_error("missing command");
    const std::string command = argv[i++];

    try {
        ServiceClient client = socket_path.empty()
                                  ? ServiceClient::connect_tcp(tcp_host, tcp_port)
                                  : ServiceClient::connect_unix(socket_path);

        if (command == "submit") {
            std::string request = "{\"cmd\":\"submit\"";
            bool have_counts = false;
            for (; i < argc; ++i) {
                const std::string arg = argv[i];
                if (arg == "--protocol") {
                    request += ",\"protocol\":" + json_quote(next_value(arg));
                } else if (arg == "--predicate") {
                    request += ",\"predicate\":" + json_quote(next_value(arg));
                } else if (arg == "--threshold") {
                    request += ",\"threshold\":" +
                               std::to_string(parse_u64("--threshold", next_value(arg)));
                } else if (arg == "--counts") {
                    const std::string list = next_value(arg);
                    request += ",\"counts\":[";
                    std::size_t start = 0;
                    bool first = true;
                    while (start <= list.size()) {
                        std::size_t comma = list.find(',', start);
                        if (comma == std::string::npos) comma = list.size();
                        if (!first) request += ',';
                        first = false;
                        request += std::to_string(
                            parse_u64("--counts", list.substr(start, comma - start)));
                        start = comma + 1;
                    }
                    request += ']';
                    have_counts = true;
                } else if (arg == "--engine") {
                    request += ",\"engine\":" + json_quote(next_value(arg));
                } else if (arg == "--model") {
                    request += ",\"model\":" + json_quote(next_value(arg));
                } else if (arg == "--probe") {
                    request +=
                        ",\"probe\":" + std::to_string(parse_u64("--probe", next_value(arg)));
                } else if (arg == "--phases") {
                    const std::string list = next_value(arg);
                    request += ",\"phases\":[";
                    std::size_t start = 0;
                    bool first = true;
                    while (start <= list.size()) {
                        std::size_t comma = list.find(',', start);
                        if (comma == std::string::npos) comma = list.size();
                        if (!first) request += ',';
                        first = false;
                        request += json_quote(list.substr(start, comma - start));
                        start = comma + 1;
                    }
                    request += ']';
                } else if (arg == "--phase-length") {
                    request += ",\"phase_length\":" +
                               std::to_string(parse_u64("--phase-length", next_value(arg)));
                } else if (arg == "--torus") {
                    const std::string dims = next_value(arg);
                    const std::size_t x = dims.find('x');
                    if (x == std::string::npos) usage_error("--torus: expected WxH");
                    request += ",\"torus_width\":" +
                               std::to_string(parse_u64("--torus", dims.substr(0, x)));
                    request += ",\"torus_height\":" +
                               std::to_string(parse_u64("--torus", dims.substr(x + 1)));
                } else if (arg == "--radius") {
                    request += ",\"radius\":" +
                               std::to_string(parse_u64("--radius", next_value(arg)));
                } else if (arg == "--seed") {
                    request +=
                        ",\"seed\":" + std::to_string(parse_u64("--seed", next_value(arg)));
                } else if (arg == "--budget") {
                    request += ",\"budget\":" +
                               std::to_string(parse_u64("--budget", next_value(arg)));
                } else if (arg == "--quantum") {
                    request += ",\"quantum\":" +
                               std::to_string(parse_u64("--quantum", next_value(arg)));
                } else if (arg == "--weight") {
                    request += ",\"weight\":" +
                               std::to_string(parse_u64("--weight", next_value(arg)));
                } else if (arg == "--snapshot-every") {
                    request += ",\"snapshot_every\":" +
                               std::to_string(parse_u64("--snapshot-every", next_value(arg)));
                } else if (arg == "--telemetry") {
                    request += ",\"telemetry\":true";
                } else if (arg == "--name") {
                    request += ",\"name\":" + json_quote(next_value(arg));
                } else {
                    usage_error("submit: unknown flag " + arg);
                }
            }
            if (!have_counts) usage_error("submit: --counts is required");
            request += '}';
            return print_response(client.request(request));
        }

        if (command == "status" || command == "suspend" || command == "resume" ||
            command == "cancel") {
            if (i >= argc) usage_error(command + ": missing session id");
            const std::string session = argv[i];
            return print_response(client.request("{\"cmd\":" + json_quote(command) +
                                                 ",\"session\":" + json_quote(session) + "}"));
        }

        if (command == "list" || command == "stats" || command == "ping" ||
            command == "shutdown") {
            return print_response(client.request("{\"cmd\":" + json_quote(command) + "}"));
        }

        if (command == "watch") {
            if (i >= argc) usage_error("watch: missing session id");
            const std::string session = argv[i];
            const std::string ack = client.request(
                "{\"cmd\":\"subscribe\",\"session\":" + json_quote(session) + "}");
            if (!response_ok(ack)) return print_response(ack);
            for (;;) {
                const std::string line = client.read_line();
                std::printf("%s\n", line.c_str());
                std::fflush(stdout);
                try {
                    const JsonValue parsed = parse_json(line);
                    const std::string event = string_member(parsed, "event");
                    if (event == "stop") return 0;
                    if (event == "state" && state_is_terminal(string_member(parsed, "state")))
                        return 0;
                } catch (const std::exception&) {
                    // Non-JSON lines cannot happen; keep streaming anyway.
                }
            }
        }

        if (command == "wait") {
            if (i >= argc) usage_error("wait: missing session id");
            const std::string session = argv[i];
            for (;;) {
                const std::string line = client.request(
                    "{\"cmd\":\"status\",\"session\":" + json_quote(session) + "}");
                if (!response_ok(line)) return print_response(line);
                const JsonValue parsed = parse_json(line);
                if (state_is_terminal(string_member(parsed, "state")))
                    return print_response(line);
                ::usleep(20000);
            }
        }

        usage_error("unknown command " + command);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "popctl: %s\n", error.what());
        return 1;
    }
}
