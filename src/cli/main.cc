// The `orpheus` command client (§2.2): an interactive shell / script
// runner over the OrpheusDB middleware — and, with --serve, the
// versioning server that shares one engine across many sessions.
//
// Usage:
//   orpheus [--threads=<n>] [--db=<dir>]                 interactive shell
//   orpheus [--threads=<n>] [--db=<dir>] script <file>   commands from a file
//   orpheus [--threads=<n>] [--db=<dir>] -c "<command>"  one command
//   orpheus --serve=<port> [--db=<dir>] [--workers=<n>]
//           [--idle-timeout-sec=<s>]                     versioning server
//   orpheus --connect=<host:port> [script <file> | -c "<command>"]
//                                                        remote client
//
// --threads sets the relstore scan parallelism (default: hardware
// concurrency; 1 forces the serial execution path). It can also be
// changed at runtime with the `threads` shell command.
//
// --db opens (creating if needed) a durable database directory:
// version-control commands are logged to its commit WAL, and a later
// invocation with the same --db recovers the full state (checkpoint +
// WAL replay — see docs/PERSISTENCE.md). Without --db the backing
// database is in-memory and dies with the process; the `open` shell
// command is the runtime equivalent. --wal-checkpoint-bytes=<n> (and
// --wal-checkpoint-records=<n>) arm the automatic checkpoint policy:
// once the WAL grows past either bound, the next logged verb folds it
// into a checkpoint.
//
// --serve=<port> (0 = ephemeral; the bound port is printed) turns the
// process into a loopback TCP server speaking the framed protocol of
// docs/SERVER.md. --connect runs the same shell/script/-c front-ends
// against such a server instead of an in-process engine.
//
// --slow-op-ms=<n> (default 100) sets the slow-op log threshold: any
// statement slower than this lands in the slow-op ring shown by the
// `stats` verb (docs/OBSERVABILITY.md); the `slowlog <ms>` verb is the
// runtime equivalent. --metrics-dump=<file> writes the Prometheus text
// exposition of every metric to <file> on exit — the scripted/bench
// equivalent of the `metrics` verb. --procstats-interval-ms=<n>
// (default 1000, 0 disables) sets the cadence of the process-stats
// sampler, which publishes RSS / fd count / CPU gauges into the same
// registry (engine-hosting modes only).

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "cli/command_processor.h"
#include "common/flags.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/procstats.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/storage_manager.h"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

// Applies the observability flags (engine-hosting modes only; a
// --connect client's metrics live in the server process). Sets the
// --metrics-dump path, empty when no dump was requested; false on a
// malformed flag.
bool ApplyObsFlags(const orpheus::Flags& flags, std::string* metrics_dump) {
  std::optional<double> slow_ms =
      orpheus::ParseNumber<double>(flags.GetString("slow-op-ms", "100"), 0,
                                   orpheus::obs::kMaxSlowOpThresholdMs);
  if (!slow_ms) {
    std::cerr << "error: --slow-op-ms expects a number of ms in [0, "
              << orpheus::obs::kMaxSlowOpThresholdMs << "]\n";
    return false;
  }
  orpheus::obs::GlobalTraceLog().SetSlowOpThresholdMs(*slow_ms);
  int64_t procstats_ms = flags.GetInt("procstats-interval-ms", 1000);
  orpheus::obs::ProcStatsSampler::Instance().Start(static_cast<int>(
      std::min<int64_t>(std::max<int64_t>(procstats_ms, 0), 1 << 30)));
  *metrics_dump = flags.GetString("metrics-dump", "");
  return true;
}

// Opens the --db directory, if one was given, and arms the automatic
// checkpoint policy from --wal-checkpoint-bytes / --wal-checkpoint-records
// (non-negative integers; 0 = no bound). False on a malformed flag or
// a failed open, after printing the error.
bool OpenDbFlag(const orpheus::Flags& flags, orpheus::core::OrpheusDB* db) {
  auto bound = [&flags](const char* name) {
    return orpheus::ParseNumber<uint64_t>(flags.GetString(name, "0"), 0,
                                          std::numeric_limits<uint64_t>::max());
  };
  std::optional<uint64_t> max_bytes = bound("wal-checkpoint-bytes");
  std::optional<uint64_t> max_records = bound("wal-checkpoint-records");
  if (!max_bytes || !max_records) {
    std::cerr << "error: --wal-checkpoint-bytes and --wal-checkpoint-records "
                 "expect a non-negative integer\n";
    return false;
  }
  std::string db_dir = flags.GetString("db", "");
  if (db_dir.empty()) return true;
  orpheus::Status st = db->Open(db_dir);
  if (!st.ok()) {
    std::cerr << "error: cannot open --db=" << db_dir << ": " << st.ToString()
              << "\n";
    return false;
  }
  if (flags.Has("wal-checkpoint-bytes") || flags.Has("wal-checkpoint-records")) {
    db->storage()->SetAutoCheckpointPolicy(*max_bytes, *max_records);
  }
  return true;
}

void MaybeDumpMetrics(const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot write --metrics-dump=" << path << "\n";
    return;
  }
  out << orpheus::obs::GlobalMetrics().RenderPrometheus();
}

// Runs one line against either a local processor or a remote client;
// prints output / error like the shell always has.
template <typename Target>
int RunLine(Target* target, const std::string& line) {
  auto result = target->Execute(line);
  if (!result.ok()) {
    std::cerr << "error: " << result.status().ToString() << "\n";
    return 1;
  }
  if (!result.value().empty()) std::cout << result.value() << "\n";
  return 0;
}

// The shared shell/script/-c front-end. `exited` reports whether the
// backing session has ended (local `exit`, or server-side close).
template <typename Target, typename ExitedFn>
int RunFrontEnd(Target* target, const std::vector<std::string>& args,
                ExitedFn exited) {
  if (args.size() >= 2 && args[0] == "-c") {
    return RunLine(target, args[1]);
  }
  if (args.size() >= 2 && args[0] == "script") {
    std::ifstream in(args[1]);
    if (!in) {
      std::cerr << "error: cannot open script " << args[1] << "\n";
      return 1;
    }
    std::string line;
    int failures = 0;
    while (std::getline(in, line) && !exited()) {
      failures += RunLine(target, line);
    }
    return failures > 0 ? 1 : 0;
  }

  std::cout << "OrpheusDB shell — type 'help' for commands, 'exit' to quit\n";
  std::string line;
  while (!exited()) {
    std::cout << "orpheus> " << std::flush;
    if (!std::getline(std::cin, line)) break;
    RunLine(target, line);
  }
  return 0;
}

int ServeMain(const orpheus::Flags& flags) {
  orpheus::core::EngineApi api;
  std::string metrics_dump;
  if (!ApplyObsFlags(flags, &metrics_dump)) return 1;
  if (!OpenDbFlag(flags, api.orpheus())) return 1;

  orpheus::server::ServerOptions options;
  int64_t port = flags.GetInt("serve", 0);
  if (port < 0 || port > 65535) {
    std::cerr << "error: --serve port out of range\n";
    return 1;
  }
  options.port = static_cast<uint16_t>(port);
  options.workers = static_cast<int>(
      std::min<int64_t>(std::max<int64_t>(flags.GetInt("workers", 8), 1), 256));
  options.idle_timeout_sec = flags.GetDouble("idle-timeout-sec", 300.0);

  orpheus::server::Server server(&api, options);
  orpheus::Status st = server.Start();
  if (!st.ok()) {
    std::cerr << "error: cannot start server: " << st.ToString() << "\n";
    return 1;
  }
  std::cout << "orpheus server listening on 127.0.0.1:" << server.port()
            << std::endl;

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_shutdown) {
    ::usleep(50 * 1000);
  }
  std::cout << "orpheus server shutting down" << std::endl;
  server.Stop();
  orpheus::obs::ProcStatsSampler::Instance().Stop();
  MaybeDumpMetrics(metrics_dump);
  return 0;
}

int ConnectMain(const orpheus::Flags& flags) {
  auto spec = orpheus::server::ParseHostPort(flags.GetString("connect", ""));
  if (!spec.ok()) {
    std::cerr << "error: bad --connect: " << spec.status().ToString() << "\n";
    return 1;
  }
  orpheus::server::Client client;
  orpheus::Status st = client.Connect(spec.value().first, spec.value().second);
  if (!st.ok()) {
    std::cerr << "error: cannot connect: " << st.ToString() << "\n";
    return 1;
  }
  return RunFrontEnd(&client, flags.positional(),
                     [&client] { return client.closed(); });
}

}  // namespace

int main(int argc, char** argv) {
  orpheus::Flags flags(argc, argv);
  if (flags.Has("connect")) return ConnectMain(flags);

  // 0 = hardware concurrency (the default); 1 = serial. Clamp before
  // narrowing so huge flag values can't wrap through int.
  int64_t threads = flags.GetInt("threads", 0);
  orpheus::SetExecThreads(static_cast<int>(
      std::min<int64_t>(std::max<int64_t>(threads, 0), orpheus::kMaxExecThreads)));

  if (flags.Has("serve")) return ServeMain(flags);

  orpheus::cli::CommandProcessor processor;
  std::string metrics_dump;
  if (!ApplyObsFlags(flags, &metrics_dump)) return 1;
  if (!OpenDbFlag(flags, processor.orpheus())) return 1;
  int rc = RunFrontEnd(&processor, flags.positional(),
                       [&processor] { return processor.exited(); });
  orpheus::obs::ProcStatsSampler::Instance().Stop();
  MaybeDumpMetrics(metrics_dump);
  return rc;
}
