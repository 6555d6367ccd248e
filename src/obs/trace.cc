#include "obs/trace.h"

#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"

namespace orpheus {
namespace obs {

namespace {
thread_local OpTrace* t_active_op = nullptr;

double ElapsedSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Histogram* StageHistogram(TraceStage stage) {
  static Histogram* hists[kTraceStageCount] = {nullptr};
  static std::once_flag once;
  std::call_once(once, [] {
    for (int i = 0; i < kTraceStageCount; ++i) {
      hists[i] = GlobalMetrics().GetHistogram(
          "orpheus_stage_seconds",
          "Time spent per pipeline stage across all operations.",
          LatencyBuckets(),
          {{"stage", TraceStageName(static_cast<TraceStage>(i))}});
    }
  });
  return hists[static_cast<int>(stage)];
}

struct VerbMetrics {
  Counter* ops;
  Histogram* latency;
};

// The per-verb children every op updates, looked up in the registry
// once per thread and verb rather than under its mutex on every op.
// Errors and slow ops stay rare lookups.
const VerbMetrics& VerbMetricsFor(const std::string& verb) {
  thread_local std::unordered_map<std::string, VerbMetrics> cache;
  auto it = cache.find(verb);
  if (it == cache.end()) {
    MetricsRegistry& reg = GlobalMetrics();
    VerbMetrics metrics{
        reg.GetCounter("orpheus_ops_total", "Operations executed, by verb.",
                       {{"verb", verb}}),
        reg.GetHistogram("orpheus_op_latency_seconds",
                         "End-to-end statement latency, by verb.",
                         LatencyBuckets(), {{"verb", verb}})};
    it = cache.emplace(verb, metrics).first;
  }
  return it->second;
}
}  // namespace

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kParse:
      return "parse";
    case TraceStage::kLockWait:
      return "lock_wait";
    case TraceStage::kExecute:
      return "execute";
    case TraceStage::kWalEnqueue:
      return "wal_enqueue";
    case TraceStage::kGroupCommitSync:
      return "group_commit_sync";
    case TraceStage::kCheckpoint:
      return "checkpoint";
  }
  return "unknown";
}

std::string OpTraceJson(const OpTrace& op, bool include_profile) {
  char buf[64];
  std::string out = "{\"id\":" + std::to_string(op.id);
  out += ",\"session\":" + std::to_string(op.session_id);
  out += ",\"verb\":\"" + JsonEscape(op.verb) + "\"";
  out += ",\"ok\":";
  out += op.ok ? "true" : "false";
  std::snprintf(buf, sizeof(buf), "%.9f", op.total_s);
  out += ",\"total_s\":" + std::string(buf);
  out += ",\"stages\":{";
  for (int i = 0; i < kTraceStageCount; ++i) {
    if (i > 0) out += ",";
    std::snprintf(buf, sizeof(buf), "%.9f", op.stage_s[i]);
    out += "\"" + std::string(TraceStageName(static_cast<TraceStage>(i))) +
           "\":" + buf;
  }
  out += "}";
  if (include_profile && op.profile != nullptr) {
    out += ",\"profile\":" + ProfileJson(*op.profile);
  }
  out += "}";
  return out;
}

TraceLog::TraceLog(size_t recent_capacity, size_t slow_capacity)
    : recent_cap_(recent_capacity), slow_cap_(slow_capacity) {}

void TraceLog::SetSlowOpThresholdMs(double ms) {
  threshold_us_.store(static_cast<int64_t>(ms * 1000),
                      std::memory_order_relaxed);
}

double TraceLog::SlowOpThresholdMs() const {
  return static_cast<double>(threshold_us_.load(std::memory_order_relaxed)) /
         1000.0;
}

void TraceLog::Record(OpTrace op) {
  const bool slow =
      op.total_s * 1e6 >=
      static_cast<double>(threshold_us_.load(std::memory_order_relaxed));
  std::lock_guard<std::mutex> lock(mu_);
  op.id = next_id_++;
  ++total_;
  if (slow) {
    slow_.push_back(op);
    if (slow_.size() > slow_cap_) slow_.pop_front();
  }
  recent_.push_back(std::move(op));
  if (recent_.size() > recent_cap_) recent_.pop_front();
}

std::vector<OpTrace> TraceLog::Recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<OpTrace>(recent_.begin(), recent_.end());
}

std::vector<OpTrace> TraceLog::SlowOps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<OpTrace>(slow_.begin(), slow_.end());
}

uint64_t TraceLog::TotalRecorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

TraceLog& GlobalTraceLog() {
  static TraceLog* log = new TraceLog();
  return *log;
}

ActiveOpScope::ActiveOpScope(std::string verb, uint64_t session_id)
    : prev_(t_active_op), active_(MetricsEnabled()) {
  if (!active_) return;
  op_.verb = std::move(verb);
  op_.session_id = session_id;
  start_ = std::chrono::steady_clock::now();
  t_active_op = &op_;
}

ActiveOpScope::~ActiveOpScope() {
  if (!active_) return;
  t_active_op = prev_;
  op_.total_s = ElapsedSeconds(start_);
  op_.profile = collector_.Take();
  const VerbMetrics& metrics = VerbMetricsFor(op_.verb);
  metrics.ops->Inc();
  MetricsRegistry& reg = GlobalMetrics();
  if (!op_.ok) {
    reg.GetCounter("orpheus_op_errors_total",
                   "Operations that returned an error, by verb.",
                   {{"verb", op_.verb}})
        ->Inc();
  }
  metrics.latency->Observe(op_.total_s);
  TraceLog& log = GlobalTraceLog();
  if (op_.total_s * 1000.0 >= log.SlowOpThresholdMs()) {
    reg.GetCounter("orpheus_slow_ops_total",
                   "Operations slower than the --slow-op-ms threshold.")
        ->Inc();
  }
  log.Record(std::move(op_));
}

TraceSpan::TraceSpan(TraceStage stage)
    : stage_(stage), active_(MetricsEnabled()) {
  if (!active_) return;
  start_ = std::chrono::steady_clock::now();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  const double elapsed = ElapsedSeconds(start_);
  if (t_active_op != nullptr) {
    t_active_op->stage_s[static_cast<int>(stage_)] += elapsed;
  }
  StageHistogram(stage_)->Observe(elapsed);
}

}  // namespace obs
}  // namespace orpheus
