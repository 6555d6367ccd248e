#include "core/concurrency.h"

#include <utility>

namespace orpheus::core {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// --- SnapshotRegistry ----------------------------------------------------

void SnapshotRegistry::Pin(uint64_t session, const std::string& cvd,
                           SessionPin pin) {
  std::lock_guard<std::mutex> lock(mu_);
  pins_[cvd][session] = pin;
}

bool SnapshotRegistry::Unpin(uint64_t session, const std::string& cvd) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pins_.find(cvd);
  if (it == pins_.end() || it->second.erase(session) == 0) return false;
  if (it->second.empty()) pins_.erase(it);
  return true;
}

int SnapshotRegistry::UnpinAll(uint64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  int released = 0;
  for (auto it = pins_.begin(); it != pins_.end();) {
    released += static_cast<int>(it->second.erase(session));
    it = it->second.empty() ? pins_.erase(it) : std::next(it);
  }
  return released;
}

void SnapshotRegistry::ForgetCvd(const std::string& cvd) {
  std::lock_guard<std::mutex> lock(mu_);
  pins_.erase(cvd);
}

std::map<std::string, SessionPin> SnapshotRegistry::PinsOf(
    uint64_t session) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SessionPin> out;
  for (const auto& [cvd, by_session] : pins_) {
    auto it = by_session.find(session);
    if (it != by_session.end()) out[cvd] = it->second;
  }
  return out;
}

int SnapshotRegistry::PinCount(const std::string& cvd) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pins_.find(cvd);
  return it == pins_.end() ? 0 : static_cast<int>(it->second.size());
}

int SnapshotRegistry::PinsByOthers(const std::string& cvd,
                                   uint64_t session) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pins_.find(cvd);
  if (it == pins_.end()) return 0;
  int n = static_cast<int>(it->second.size());
  if (it->second.count(session) > 0) --n;
  return n;
}

// --- SessionContext ------------------------------------------------------

std::string SessionContext::user() const {
  std::lock_guard<std::mutex> lock(mu_);
  return user_;
}

void SessionContext::set_user(std::string user) {
  std::lock_guard<std::mutex> lock(mu_);
  user_ = std::move(user);
}

void SessionContext::AddCsvStaging(const std::string& file,
                                   const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  csv_staging_[file] = table;
}

std::string SessionContext::GetCsvStaging(const std::string& file) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = csv_staging_.find(file);
  return it == csv_staging_.end() ? std::string() : it->second;
}

void SessionContext::RemoveCsvStaging(const std::string& file) {
  std::lock_guard<std::mutex> lock(mu_);
  csv_staging_.erase(file);
}

void SessionContext::NoteDurableLsn(uint64_t lsn) {
  // Monotonic max: a later statement can complete with a smaller LSN
  // only if something is wrong upstream — never move backwards.
  uint64_t seen = last_durable_lsn_.load(std::memory_order_relaxed);
  while (lsn > seen && !last_durable_lsn_.compare_exchange_weak(
                           seen, lsn, std::memory_order_acq_rel)) {
  }
}

void SessionContext::Touch() {
  last_active_ms_.store(NowMs(), std::memory_order_release);
}

double SessionContext::IdleSeconds() const {
  int64_t last = last_active_ms_.load(std::memory_order_acquire);
  return static_cast<double>(NowMs() - last) / 1000.0;
}

}  // namespace orpheus::core
