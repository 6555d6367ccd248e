#include "server/session_manager.h"

namespace orpheus::server {

std::shared_ptr<core::SessionContext> SessionManager::Create() {
  std::shared_ptr<core::SessionContext> session = api_->NewSession();
  std::lock_guard<std::mutex> lock(mu_);
  sessions_[session->id()] = session;
  return session;
}

void SessionManager::Close(uint64_t id) {
  std::shared_ptr<core::SessionContext> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    session = it->second;
  }
  // Outside mu_: CloseSession takes the engine's exclusive lock to
  // discard staged tables, and must not hold the registry mutex then.
  // The session stays counted by active() until its teardown is done.
  api_->CloseSession(session.get(), /*discard_staged=*/true);
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.erase(id);
}

void SessionManager::CloseAll() {
  std::vector<uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, session] : sessions_) ids.push_back(id);
  }
  for (uint64_t id : ids) Close(id);
}

size_t SessionManager::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::vector<std::shared_ptr<core::SessionContext>> SessionManager::Sessions()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<core::SessionContext>> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) out.push_back(session);
  return out;
}

}  // namespace orpheus::server
