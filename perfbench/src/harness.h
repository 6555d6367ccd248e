// The benchmark's side of the wire: an engine and its TCP server
// standing in this process, client sessions that time every statement
// they send, the collector that copies the engine's per-op traces out
// of its ring, and the loader that builds a CVD from wl::Dataset
// through real init / checkout / sql / commit statements.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine_api.h"
#include "model.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/server.h"

namespace perfbench {

using orpheus::Result;
using orpheus::Status;

enum OpKind { kCheckout = 0, kCommit, kVquery, kXquery, kOpKinds };
extern const char* const kOpNames[kOpKinds];
constexpr int kUntimed = -1;

// Steady-clock seconds.
double Now();

// One statement as its client saw it.
struct StmtRecord {
  int kind = kUntimed;     // OpKind of a timed op, else kUntimed
  bool measured = false;   // timed phase, past the warm-up
  bool ok = false;         // the engine answered OK
  double start = 0;        // client span around Client::Execute
  double end = 0;
  double latency_ms = 0;   // from `due` for open-loop ops, else the span
  size_t net_bytes = 0;    // request + reply frames
  // rel::Database::stats() deltas across the statement (exact only
  // while this session is the only one running).
  int64_t rows_scanned = 0;
  int64_t index_probes = 0;
  int64_t pages_read = 0;
  int64_t rows_returned = 0;  // rows the op produced, from the model
};

// An engine plus its loopback server. In-memory when `dir` is empty,
// else durable in `dir` with the default flush policy.
class Instance {
 public:
  static Result<std::unique_ptr<Instance>> Start(const std::string& dir,
                                                 int clients);
  ~Instance();
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  orpheus::core::OrpheusDB* engine() { return api_->orpheus(); }
  uint16_t port() const { return server_->port(); }
  const std::string& dir() const { return dir_; }
  void StopServer() { server_->Stop(); }

 private:
  Instance() = default;

  std::string dir_;
  std::unique_ptr<orpheus::core::EngineApi> api_;
  std::unique_ptr<orpheus::server::Server> server_;
};

// Copies finished operations out of obs::GlobalTraceLog() before its
// 256-entry ring wraps. Sessions call Poll() every few statements.
class TraceHarvester {
 public:
  TraceHarvester();
  void Poll();
  std::vector<orpheus::obs::OpTrace> Take();

 private:
  std::mutex mu_;
  uint64_t last_id_ = 0;
  std::vector<orpheus::obs::OpTrace> got_;
};

// One client connection. Exec() times and records every statement.
class Session {
 public:
  // `harvester` is null in untraced runs.
  Session(Instance* instance, TraceHarvester* harvester);

  Status Connect();
  uint64_t id() const { return id_; }

  // A timed op's latency runs from `due` when given (open-loop
  // callers), else from the send.
  Result<std::string> Exec(const std::string& line, int kind = kUntimed,
                           int64_t rows_returned = 0, double due = 0);
  // Counts the last timed op as failed (its output check did not hold).
  void FailLastOp();

  void set_measuring(bool on) { measuring_ = on; }

  std::vector<StmtRecord> stmts;
  int64_t attempted = 0;  // timed ops while measuring
  int64_t failed = 0;

 private:
  Instance* instance_;
  TraceHarvester* harvester_;
  orpheus::server::Client client_;
  uint64_t id_ = 0;
  bool measuring_ = false;
  bool last_counted_ = false;  // last timed op was inside the measurement
};

// Loads every version of the model's dataset into CVD `model->name()`
// with statements on `s`: init from a CSV of version 1 (written under
// `workdir`), then per version a checkout of its parents, DELETE and
// INSERT statements for its edits, and a commit.
Status LoadCvd(Session* s, const CvdModel& model, const std::string& workdir);

// Parses "<a> | <b> ..." result rows of a Chunk::ToString reply into
// integers (the header line is skipped).
std::vector<std::vector<int64_t>> ParseRows(const std::string& reply);

// Total bytes of the regular files under `dir`.
int64_t DirBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
