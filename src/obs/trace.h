// Per-operation tracing: an RAII span API that attributes wall time
// to pipeline stages (parse -> lock wait -> execute -> WAL enqueue ->
// group-commit sync -> checkpoint) and records finished operations
// into a ring buffer of recent ops plus a slow-op log gated by a
// configurable threshold (--slow-op-ms, default 100).
//
// EngineApi::Execute installs one ActiveOpScope per statement; any
// TraceSpan constructed on the same thread while it lives charges its
// elapsed time to that operation's stage vector. This works because
// every stage of a statement — including the WAL enqueue under the
// exclusive lock, the group-commit WaitDurable, and a triggered
// checkpoint — runs on the statement's own thread.
#ifndef ORPHEUS_OBS_TRACE_H_
#define ORPHEUS_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/profile.h"

namespace orpheus {
namespace obs {

enum class TraceStage {
  kParse = 0,
  kLockWait,
  kExecute,
  kWalEnqueue,
  kGroupCommitSync,
  kCheckpoint,
};
constexpr int kTraceStageCount = 6;
const char* TraceStageName(TraceStage stage);

// One finished operation. Stage times are attributed, not disjoint:
// kExecute includes nested kWalEnqueue/kCheckpoint spans.
struct OpTrace {
  uint64_t id = 0;
  uint64_t session_id = 0;
  std::string verb;
  double total_s = 0;
  double stage_s[kTraceStageCount] = {0, 0, 0, 0, 0, 0};
  bool ok = true;
  // Operator profile tree (statements that ran executor operators
  // only); shared with any profile snapshots taken while it ran.
  std::shared_ptr<const ProfileNode> profile;
};

// One trace as a single JSON object ({"id":...,"stages":{...}}), the
// line format of the `traces` verb. The profile tree is included only
// when `include_profile` is set and the op recorded one.
std::string OpTraceJson(const OpTrace& op, bool include_profile);

// Largest accepted slow-op threshold (about 11.6 days).
inline constexpr double kMaxSlowOpThresholdMs = 1e9;

// Ring buffer of recent operations plus a slow-op log. Recording and
// reading take a mutex; this runs once per statement, not per batch.
class TraceLog {
 public:
  explicit TraceLog(size_t recent_capacity = 256, size_t slow_capacity = 128);

  // `ms` must lie in [0, kMaxSlowOpThresholdMs].
  void SetSlowOpThresholdMs(double ms);
  double SlowOpThresholdMs() const;

  void Record(OpTrace op);
  std::vector<OpTrace> Recent() const;
  std::vector<OpTrace> SlowOps() const;
  uint64_t TotalRecorded() const;

 private:
  mutable std::mutex mu_;
  size_t recent_cap_;
  size_t slow_cap_;
  std::deque<OpTrace> recent_;
  std::deque<OpTrace> slow_;
  uint64_t next_id_ = 1;
  uint64_t total_ = 0;
  std::atomic<int64_t> threshold_us_{100 * 1000};
};

TraceLog& GlobalTraceLog();

// Installed by EngineApi::Execute for the duration of one statement.
// On destruction it finalizes the trace, records it into
// GlobalTraceLog(), and bumps the per-verb op counters + latency
// histogram in GlobalMetrics().
class ActiveOpScope {
 public:
  ActiveOpScope(std::string verb, uint64_t session_id);
  ~ActiveOpScope();
  ActiveOpScope(const ActiveOpScope&) = delete;
  ActiveOpScope& operator=(const ActiveOpScope&) = delete;

  void set_ok(bool ok) { op_.ok = ok; }

 private:
  OpTrace op_;
  OpTrace* prev_;
  ProfileCollector collector_;
  std::chrono::steady_clock::time_point start_;
  bool active_;
};

// Charges its lifetime to `stage` of the thread's active op (if any)
// and to the orpheus_stage_seconds{stage=...} histogram. Cheap no-op
// when metrics are disabled.
class TraceSpan {
 public:
  explicit TraceSpan(TraceStage stage);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceStage stage_;
  std::chrono::steady_clock::time_point start_;
  bool active_;
};

}  // namespace obs
}  // namespace orpheus

#endif  // ORPHEUS_OBS_TRACE_H_
