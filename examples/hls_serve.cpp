// hls_serve — serve design+grid jobs over a worker pool with shared
// compiled sessions and a cross-config warm-start trace cache.
//
//   hls_serve --jobs jobs.json [--threads 4] [--stats]
//   hls_serve --listen /tmp/hls.sock [--once]
//   echo '{"id":0,"workload":"ewf","grid":{...}}' | hls_serve --jobs -
//
// Job format and determinism guarantees: docs/SERVE.md; robustness
// behavior (deadlines, budgets, shedding, graceful drain): docs/FAULTS.md.
// Results stream to stdout (or the socket) as JSON lines, ordered by
// (job id, point index) regardless of thread count.
//
// SIGTERM/SIGINT request a graceful drain: in-flight points finish, every
// remaining point is emitted as an ordered cancelled placeholder, and the
// process exits 0 — nonzero exits mean a real failure, never a shutdown.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "serve/io.hpp"
#include "serve/server.hpp"

namespace {

// Flipped from the signal handler; observed by the serve engine at round
// boundaries and by the accept loop via EINTR (the handlers are installed
// WITHOUT SA_RESTART precisely so a blocked accept() wakes up).
hls::support::StopSource g_stop;

extern "C" void on_stop_signal(int) { g_stop.request_stop(); }

int usage(int code) {
  std::cerr <<
      "usage: hls_serve --jobs FILE [options]\n"
      "       hls_serve --listen SOCKET_PATH [--once] [options]\n"
      "\n"
      "modes:\n"
      "  --jobs FILE        run the job document in FILE ('-' = stdin)\n"
      "  --listen PATH      accept job documents on an AF_UNIX socket;\n"
      "                     each connection sends one document and\n"
      "                     receives its result lines\n"
      "  --once             exit after the first connection (with --listen)\n"
      "\n"
      "options:\n"
      "  --threads N        worker threads per round (0 = all cores; 1)\n"
      "  --inflight N       in-flight job cap (4)\n"
      "  --batch N          points per job per round (8; 0 = whole job)\n"
      "  --sessions N       compiled-session cache size (8)\n"
      "  --trace-entries N  trace cache size (1024)\n"
      "  --no-trace-cache   disable exact-config seed replay\n"
      "  --queue-depth N    shed jobs beyond N queued (0 = unbounded)\n"
      "  --retries N        transient-fault compile retries (2)\n"
      "  --max-request-bytes N\n"
      "                     reject request documents larger than N\n"
      "                     bytes (4194304; 0 = unlimited)\n"
      "  --stats            append a {\"stats\": ...} line\n";
  return code;
}

bool read_file(const std::string& path, std::string* out) {
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    *out = ss.str();
    return true;
  }
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

int serve_document(hls::serve::Server& server, const std::string& text,
                   const std::function<void(const std::string&)>& sink) {
  std::vector<std::string> errors;
  server.submit_text(text, &errors);
  for (const std::string& e : errors) {
    hls::JsonWriter w;
    w.begin_object();
    w.key("error");
    w.value(e);
    w.end_object();
    sink(w.str());
  }
  server.drain(sink);
  return errors.empty() ? 0 : 2;
}

int listen_mode(hls::serve::Server& server, const std::string& path,
                bool once, const hls::serve::IoOptions& io) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::cerr << "socket path too long\n";
    ::close(fd);
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 4) < 0) {
    std::perror("bind/listen");
    ::close(fd);
    return 1;
  }
  std::cerr << "hls_serve: listening on " << path << "\n";
  int rc = 0;
  while (!g_stop.stop_requested()) {
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      // A stop signal interrupts the blocking accept with EINTR — that is
      // a clean shutdown, not an error. Spurious EINTRs just retry.
      if (errno == EINTR) continue;
      std::perror("accept");
      rc = 1;
      break;
    }
    // One request document per connection: read until EOF (the client
    // shuts down its write side), serve, stream lines back, close.
    std::string text;
    const hls::serve::ReadStatus rs =
        hls::serve::read_request(conn, &text, io);
    if (rs != hls::serve::ReadStatus::kOk) {
      hls::JsonWriter w;
      w.begin_object();
      w.key("error");
      w.value(rs == hls::serve::ReadStatus::kOversized
                  ? hls::strf("[job/oversized] request exceeds ",
                              io.max_request_bytes, " bytes; rejected")
                  : std::string("[io/read_failed] could not read request"));
      w.end_object();
      std::string line = w.str();
      line += '\n';
      hls::serve::write_all(conn, line, io);
      ::close(conn);
      continue;
    }
    // A client that hangs up mid-stream (EPIPE) stops receiving but must
    // not abort the drain: caches and stats stay consistent for the next
    // connection, and the round loop's invariants never depend on the
    // sink succeeding.
    bool peer_gone = false;
    auto sink = [&](const std::string& line) {
      if (peer_gone) return;
      std::string out = line;
      out += '\n';
      int err = 0;
      if (!hls::serve::write_all(conn, out, io, &err)) peer_gone = true;
    };
    serve_document(server, text, sink);
    ::close(conn);
    if (once) break;
  }
  ::close(fd);
  ::unlink(path.c_str());
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // Stop signals must interrupt a blocked accept(), so: no SA_RESTART.
  // SIGPIPE is ignored — a hung-up client surfaces as an EPIPE write
  // error (handled in the sink), never as process death.
  struct sigaction sa{};
  sa.sa_handler = on_stop_signal;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  std::string jobs_path;
  std::string listen_path;
  bool once = false;
  hls::serve::ServerOptions options;
  hls::serve::IoOptions io;
  io.max_request_bytes = 4u << 20;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr) return usage(2);
      jobs_path = v;
    } else if (arg == "--listen") {
      const char* v = next();
      if (v == nullptr) return usage(2);
      listen_path = v;
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return usage(2);
      options.threads = std::atoi(v);
    } else if (arg == "--inflight") {
      const char* v = next();
      if (v == nullptr) return usage(2);
      options.max_inflight = std::atoi(v);
    } else if (arg == "--batch") {
      const char* v = next();
      if (v == nullptr) return usage(2);
      options.micro_batch = std::atoi(v);
    } else if (arg == "--sessions") {
      const char* v = next();
      if (v == nullptr) return usage(2);
      options.max_sessions = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--trace-entries") {
      const char* v = next();
      if (v == nullptr) return usage(2);
      options.max_trace_entries = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--no-trace-cache") {
      options.trace_cache = false;
    } else if (arg == "--queue-depth") {
      const char* v = next();
      if (v == nullptr) return usage(2);
      options.max_queue_depth = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--retries") {
      const char* v = next();
      if (v == nullptr) return usage(2);
      options.max_compile_retries = std::atoi(v);
    } else if (arg == "--max-request-bytes") {
      const char* v = next();
      if (v == nullptr) return usage(2);
      io.max_request_bytes = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--stats") {
      options.emit_stats = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(0);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return usage(2);
    }
  }
  if (jobs_path.empty() == listen_path.empty()) {
    std::cerr << "exactly one of --jobs / --listen is required\n";
    return usage(2);
  }
  options.stop = &g_stop;

  hls::serve::Server server(options);
  if (!listen_path.empty()) {
    return listen_mode(server, listen_path, once, io);
  }

  std::string text;
  if (!read_file(jobs_path, &text)) {
    std::cerr << "cannot read " << jobs_path << "\n";
    return 1;
  }
  return serve_document(server, text,
                        [](const std::string& line) {
                          std::cout << line << "\n";
                        });
}
