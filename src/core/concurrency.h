// Concurrency core for serving many sessions over one engine.
//
// Three pieces, all engine-agnostic (EngineApi wires them to
// OrpheusDB):
//
//  * EngineLock — one shared-read / exclusive-write lock over the
//    whole engine (CVD registry + relstore + storage manager), plus a
//    monotonically increasing commit epoch. Read-only statements
//    (SELECTs, ls, graph, diff, pin) run under the shared side and may
//    overlap freely; every mutating verb (init/checkout/commit/
//    discard/drop/optimize/DDL-SQL/checkpoint) takes the exclusive
//    side (the verb table in engine_api.cc fixes each verb's side).
//    Over EngineApi the exclusive hold covers only the in-memory apply
//    plus the WAL *enqueue* — enqueue order under the lock fixes the
//    log's total order — while the write + fdatasync happen after
//    release, batched across sessions by a group leader
//    (storage_manager.h).
//    The epoch is bumped once per successful exclusive statement.
//
//  * SnapshotRegistry — which sessions have pinned which CVD at which
//    (version, epoch). Committed versions are immutable, so a reader
//    that pinned version v keeps seeing exactly v's records no matter
//    how many commits land after the pin; the registry is what gives
//    the pin teeth against the one operation that could invalidate it:
//    DropCvd refuses while another session holds a pin.
//
//  * SessionContext — the per-session state that used to live
//    implicitly in the single-session CommandProcessor (current user,
//    csv file -> staged table map, activity clock), made thread-safe
//    so a session manager and an idle reaper can inspect it while the
//    session's connection thread uses it. It copies no engine state:
//    which session checked out a staged table is recorded in the
//    CVD's staging area (StagedTableInfo::session), and its pins live
//    in the SnapshotRegistry only.
//
// Lock ordering: EngineLock first, then any SessionContext /
// SnapshotRegistry internal mutex. Neither of the latter is ever held
// while acquiring the former.

#ifndef ORPHEUS_CORE_CONCURRENCY_H_
#define ORPHEUS_CORE_CONCURRENCY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/version_graph.h"

namespace orpheus::core {

// The engine-wide reader/writer lock plus the commit epoch. See the
// file comment for the locking discipline.
class EngineLock {
 public:
  std::shared_mutex& mu() { return mu_; }

  // The current commit epoch (starts at 1, bumped after every
  // successful exclusive statement). Readable without any lock.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  // Called by the dispatcher while still holding the exclusive lock.
  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  std::shared_mutex mu_;
  std::atomic<uint64_t> epoch_{1};
};

// A session's pin of one CVD: the version it pinned and the engine
// epoch at pin time.
struct SessionPin {
  VersionId vid = 0;
  uint64_t epoch = 0;
};

// Tracks which sessions pinned which CVDs. Thread-safe.
class SnapshotRegistry {
 public:
  // Registers (or re-registers) `session`'s pin of `cvd`.
  void Pin(uint64_t session, const std::string& cvd, SessionPin pin);

  // Removes one pin; false if the session had none on this CVD.
  bool Unpin(uint64_t session, const std::string& cvd);

  // Drops every pin held by `session` (session close). Returns how
  // many were released.
  int UnpinAll(uint64_t session);

  // Drops every pin on `cvd` (after the CVD itself is dropped).
  void ForgetCvd(const std::string& cvd);

  // `session`'s pins, by CVD name.
  std::map<std::string, SessionPin> PinsOf(uint64_t session) const;

  // Number of sessions currently pinning `cvd`.
  int PinCount(const std::string& cvd) const;

  // Number of sessions other than `session` pinning `cvd` — the
  // DropCvd guard.
  int PinsByOthers(const std::string& cvd, uint64_t session) const;

 private:
  mutable std::mutex mu_;
  // cvd -> (session id -> pin)
  std::map<std::string, std::map<uint64_t, SessionPin>> pins_;
};

// Per-session state. All accessors are thread-safe; the connection
// thread and the session manager / reaper may use one concurrently.
class SessionContext {
 public:
  explicit SessionContext(uint64_t id) : id_(id) { Touch(); }

  uint64_t id() const { return id_; }

  std::string user() const;
  void set_user(std::string user);

  bool exited() const { return exited_.load(std::memory_order_acquire); }
  void set_exited() { exited_.store(true, std::memory_order_release); }

  // --- CSV staging (checkout -f / commit -f flows) -----------------
  // file -> the staged table it was checked out from; the table's
  // staging entry names the CVD.
  void AddCsvStaging(const std::string& file, const std::string& table);
  // Empty if unknown. The entry stays until RemoveCsvStaging (commit
  // only clears it once the csv was re-parsed and schema-checked, so
  // an invalid edit can be retried).
  std::string GetCsvStaging(const std::string& file) const;
  void RemoveCsvStaging(const std::string& file);

  // Monotonic counter for generated staging-table names.
  int NextStagingId() { return staging_counter_.fetch_add(1); }

  // --- Op counter (per-session observability) ----------------------
  // Statements this session has executed; shown by the `stats` verb
  // and logged by the server on disconnect.
  void NoteOp() { ops_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t ops_executed() const {
    return ops_.load(std::memory_order_relaxed);
  }

  // --- Durability bookmark (group-commit bookkeeping) --------------
  // Highest WAL LSN this session has waited durable. Monotonic per
  // session (the group-commit stress test's per-session oracle), and
  // the natural replication bookmark once WAL shipping lands.
  void NoteDurableLsn(uint64_t lsn);
  uint64_t last_durable_lsn() const {
    return last_durable_lsn_.load(std::memory_order_acquire);
  }

  // --- Activity clock (idle-timeout bookkeeping) -------------------
  void Touch();
  // Seconds since the last Touch().
  double IdleSeconds() const;

 private:
  const uint64_t id_;
  std::atomic<bool> exited_{false};
  std::atomic<int> staging_counter_{0};
  std::atomic<uint64_t> ops_{0};
  std::atomic<int64_t> last_active_ms_{0};
  std::atomic<uint64_t> last_durable_lsn_{0};

  mutable std::mutex mu_;
  std::string user_ = "default";
  std::map<std::string, std::string> csv_staging_;  // file -> table
};

}  // namespace orpheus::core

#endif  // ORPHEUS_CORE_CONCURRENCY_H_
