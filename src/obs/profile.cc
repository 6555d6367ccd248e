#include "obs/profile.h"

#include <cstdio>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"

namespace orpheus {
namespace obs {

namespace {
thread_local ProfileCollector* t_profile_collector = nullptr;

struct OperatorMetrics {
  Histogram* seconds;
  Counter* rows;
};

// The operator families' children for `op`, looked up in the registry
// once per thread and operator name (a string literal), so an
// operator scope costs two relaxed atomic adds, not two registry
// lookups under its mutex.
const OperatorMetrics& OperatorMetricsFor(const char* op) {
  thread_local std::unordered_map<const char*, OperatorMetrics> cache;
  auto it = cache.find(op);
  if (it == cache.end()) {
    MetricsRegistry& reg = GlobalMetrics();
    OperatorMetrics metrics{
        reg.GetHistogram("orpheus_operator_seconds",
                         "Wall time per executor operator.", LatencyBuckets(),
                         {{"op", op}}),
        reg.GetCounter("orpheus_operator_rows",
                       "Rows produced per executor operator.", {{"op", op}})};
    it = cache.emplace(op, metrics).first;
  }
  return it->second;
}

double ElapsedSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string FormatSecondsShort(double s) {
  char buf[64];
  if (s >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3f s", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f us", s * 1e6);
  }
  return buf;
}

void AppendText(const ProfileNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += node.op;
  if (!node.detail.empty()) {
    *out += " [" + node.detail + "]";
  }
  *out += "  rows_in=" + std::to_string(node.rows_in);
  *out += " rows_out=" + std::to_string(node.rows_out);
  if (node.batches > 0) {
    *out += " batches=" + std::to_string(node.batches);
  }
  *out += "  time=" + FormatSecondsShort(node.seconds);
  *out += "\n";
  for (const auto& child : node.children) {
    AppendText(*child, depth + 1, out);
  }
}

void AppendJson(const ProfileNode& node, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9f", node.seconds);
  *out += "{\"op\":\"" + JsonEscape(node.op) + "\"";
  if (!node.detail.empty()) {
    *out += ",\"detail\":\"" + JsonEscape(node.detail) + "\"";
  }
  *out += ",\"rows_in\":" + std::to_string(node.rows_in);
  *out += ",\"rows_out\":" + std::to_string(node.rows_out);
  *out += ",\"batches\":" + std::to_string(node.batches);
  *out += ",\"seconds\":" + std::string(buf);
  if (!node.children.empty()) {
    *out += ",\"children\":[";
    bool first = true;
    for (const auto& child : node.children) {
      if (!first) *out += ",";
      first = false;
      AppendJson(*child, out);
    }
    *out += "]";
  }
  *out += "}";
}
}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string ProfileText(const ProfileNode& root) {
  std::string out;
  AppendText(root, 0, &out);
  return out;
}

std::string ProfileJson(const ProfileNode& root) {
  std::string out;
  AppendJson(root, &out);
  return out;
}

ProfileCollector::ProfileCollector() {
  if (!MetricsEnabled()) return;
  root_ = std::make_shared<ProfileNode>();
  root_->op = "statement";
  current_ = root_.get();
  start_ = std::chrono::steady_clock::now();
  prev_ = t_profile_collector;
  t_profile_collector = this;
  installed_ = true;
}

ProfileCollector::~ProfileCollector() {
  if (installed_) t_profile_collector = prev_;
}

std::shared_ptr<const ProfileNode> ProfileCollector::Take() {
  if (!installed_) return nullptr;
  t_profile_collector = prev_;
  installed_ = false;
  if (root_->children.empty()) return nullptr;
  root_->seconds = ElapsedSeconds(start_);
  return std::move(root_);
}

std::shared_ptr<const ProfileNode> SnapshotActiveProfile() {
  ProfileCollector* collector = t_profile_collector;
  if (collector == nullptr || collector->root_ == nullptr ||
      collector->root_->children.empty()) {
    return nullptr;
  }
  // Finished subtrees are immutable, so sharing their shared_ptrs is
  // safe; only the root is still open and must be cloned.
  auto snap = std::make_shared<ProfileNode>();
  snap->op = collector->root_->op;
  snap->detail = collector->root_->detail;
  snap->seconds = ElapsedSeconds(collector->start_);
  snap->children = collector->root_->children;
  for (const auto& child : snap->children) {
    snap->rows_out += child->rows_out;
  }
  return snap;
}

ProfileOpScope::ProfileOpScope(const char* op, std::string detail)
    : op_(op), detail_(std::move(detail)), active_(MetricsEnabled()) {
  if (!active_) return;
  start_ = std::chrono::steady_clock::now();
  ProfileCollector* collector = t_profile_collector;
  if (collector == nullptr || collector->current_ == nullptr) return;
  collector_ = collector;
  parent_ = collector->current_;
  auto node = std::make_shared<ProfileNode>();
  node->op = op_;
  node->detail = detail_;
  node_ = node.get();
  parent_->children.push_back(std::move(node));
  collector->current_ = node_;
}

void ProfileOpScope::SetDetail(std::string detail) {
  detail_ = std::move(detail);
  if (node_ != nullptr) node_->detail = detail_;
}

ProfileOpScope::~ProfileOpScope() {
  if (!active_) return;
  const double elapsed = ElapsedSeconds(start_);
  if (node_ != nullptr) {
    node_->rows_in = rows_in_;
    node_->rows_out = rows_out_;
    node_->batches = batches_;
    node_->seconds = elapsed;
    collector_->current_ = parent_;
  }
  const OperatorMetrics& metrics = OperatorMetricsFor(op_);
  metrics.seconds->Observe(elapsed);
  metrics.rows->Inc(rows_out_);
}

}  // namespace obs
}  // namespace orpheus
