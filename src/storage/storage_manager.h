// StorageManager: the orchestration layer of the durable storage
// subsystem. One manager owns one database directory (storage format
// v2 — segmented incremental checkpoints):
//
//   <dir>/MANIFEST           the commit point (see manifest.h)
//   <dir>/segments/          immutable per-table segment files
//     seg-<id>.orps            (see segment.h; ids never reused)
//   <dir>/wal.log            commit WAL past the manifest watermark
//   <dir>/LOCK               flock(2)-held single-writer guard
//
// Open() recovers: load the MANIFEST (if any), restore its segments
// in parallel, replay every WAL record past the manifest's LSN
// watermark, truncate any torn tail, delete unreferenced segment
// files, and arm the appender. A directory holding only a
// `snapshot.orph` (storage format v1, no longer read) is refused.
//
// Checkpoint() is incremental: each table carries a mutation epoch
// (rel::Table::epoch), and only tables whose epoch moved since the
// last checkpoint get a fresh segment — everything else is carried
// over by reference. Protocol: write dirty segments under fresh
// never-reused names, fsync them (and their directory), then commit
// by atomically replacing the MANIFEST, then delete orphaned
// segments and reset the WAL. A crash anywhere leaves either the old
// manifest (plus a fully replayable WAL) or the new one (whose
// watermark skips the folded WAL records) — never a hybrid; stray
// segment files are orphans, invisible to recovery and deleted by
// the next checkpoint or open.
//
// OrpheusDB calls the typed Log* appenders after each verb that
// changes a CVD (or the user set) succeeds in memory; every record
// reaches disk through the group-commit queue (see below), and a verb
// is durable when its record's ticket is. Checkout and discard only
// move data into or out of the staging area: they are not logged, and
// the staging area is durable at the next checkpoint. Replay applies
// records through the same OrpheusDB verbs (a commit through
// Cvd::ReplayCommit, which applies the logged resolution to the logged
// parents) — logging is disarmed during recovery because the manager
// is not yet attached to the engine.

#ifndef ORPHEUS_STORAGE_STORAGE_MANAGER_H_
#define ORPHEUS_STORAGE_STORAGE_MANAGER_H_

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cvd.h"
#include "relstore/chunk.h"
#include "storage/manifest.h"
#include "storage/wal.h"

namespace orpheus::core {
class OrpheusDB;
}

namespace orpheus::storage {

// One enqueued-but-not-yet-durable WAL record in the group-commit
// queue. The enqueuer holds a ticket; a group leader fills in status
// and LSN once the record's batch has been written and synced.
struct PendingAppend {
  WalRecordType type;
  std::string body;
  bool done = false;       // guarded by the manager's group mutex
  Status status;           // valid once done
  uint64_t lsn = 0;        // assigned at write time; 0 on failure
};
using AppendTicket = std::shared_ptr<PendingAppend>;

class DurabilityScope;

class StorageManager {
 public:
  // Opens (creating if needed) `dir` and recovers its state into `db`,
  // which must be a fresh engine. The returned manager is armed for
  // appending; OrpheusDB::Open attaches it to the engine.
  static Result<std::unique_ptr<StorageManager>> Open(const std::string& dir,
                                                      core::OrpheusDB* db);

  // Exports `db` as a new database directory: takes `dir`'s LOCK,
  // refuses a target that already holds a database (a MANIFEST, a
  // non-empty WAL, or a v1 snapshot.orph) with InvalidArgument naming
  // the file, then runs a full Checkpoint() into it (watermark 0, so
  // opening it replays nothing). The LOCK refuses the live directory
  // of any open engine, under any spelling.
  static Status ExportTo(core::OrpheusDB* db, const std::string& dir);

  static std::string ManifestPath(const std::string& dir) {
    return dir + "/MANIFEST";
  }
  static std::string SegmentsDir(const std::string& dir) {
    return dir + "/segments";
  }
  static std::string SegmentPath(const std::string& dir,
                                 const std::string& file) {
    return dir + "/segments/" + file;
  }
  static std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }
  static std::string LockPath(const std::string& dir) { return dir + "/LOCK"; }

  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  ~StorageManager();  // releases the directory LOCK

  // Incremental checkpoint: rewrite only dirty tables' segments,
  // commit by atomic MANIFEST replace, delete orphans, reset the WAL.
  Status Checkpoint();

  struct CheckpointStats {
    uint64_t segments_written = 0;  // freshly encoded + written
    uint64_t segments_reused = 0;   // carried over by reference
    uint64_t segments_deleted = 0;  // orphans retired afterwards
    uint64_t bytes_written = 0;     // segment bytes only (not MANIFEST)
  };
  const CheckpointStats& last_checkpoint_stats() const { return last_stats_; }

  // Forces every table dirty at each checkpoint — the full-rewrite
  // reference engine for equivalence tests and bench baselines.
  void set_incremental_checkpoint(bool on) { incremental_ = on; }
  bool incremental_checkpoint() const { return incremental_; }

  // The live manifest (tests: segment file names/checksums; benches:
  // checkpointed byte totals).
  const Manifest& manifest() const { return manifest_; }

  // Automatic checkpointing: once the WAL since the last checkpoint
  // exceeds `max_wal_bytes` bytes or `max_wal_records` records
  // (0 = no bound), the next logged verb triggers a Checkpoint().
  // Default: 64 MiB, unbounded records.
  void SetAutoCheckpointPolicy(uint64_t max_wal_bytes,
                               uint64_t max_wal_records);

  const std::string& dir() const { return dir_; }
  uint64_t next_lsn() const { return wal_->next_lsn(); }
  uint64_t wal_bytes() const { return wal_->file_bytes(); }
  uint64_t wal_records() const { return wal_->records(); }
  // fdatasyncs the appender has issued (group-commit efficiency oracle).
  uint64_t wal_syncs() const { return wal_->syncs(); }

  // --- Group commit (RocksDB write-group style) -------------------------
  //
  // Appenders enqueue: the record joins the commit queue (the enqueue
  // order — fixed by the engine's exclusive lock — is the LSN order).
  // WaitDurable() is the durability point: the first waiter whose
  // record is still pending becomes the group leader, drains the whole
  // queue into ONE WalWriter::AppendBatch (one write, one fdatasync),
  // and wakes every follower with its individual Status. With no
  // DurabilityScope open the appender waits on its own ticket before
  // returning (a group of one for a lone embedder). EngineApi opens a
  // scope around each exclusive statement and waits after releasing
  // the lock, so commit groups form while the leader syncs.

  // Blocks until every ticket is durable (leading a group if needed);
  // returns the first ticket's error, if any. Safe from any thread.
  Status WaitDurable(const std::vector<AppendTicket>& tickets);

  // Drains the queue synchronously (caller must guarantee no new
  // enqueues race — in practice: the engine's exclusive lock is held,
  // or the manager is shutting down). Returns the writer's health so
  // a poisoned WAL fails a following Checkpoint instead of silently
  // checkpointing past unsynced records.
  Status FlushPending();

  // --- Typed WAL appenders ---------------------------------------------
  Status LogCreateUser(const std::string& name);
  Status LogLogin(const std::string& name);
  Status LogInitCvd(const std::string& name, const core::CvdOptions& options,
                    const std::string& message, const rel::Chunk& rows);
  // Logs the resolved commit (see WalRecordType::kCommit): its parents
  // and times, the staged schema, the rid of every committed row and
  // the new records only. Replay needs nothing else — checkout is not
  // logged.
  Status LogCommit(const std::string& cvd_name, const std::string& table_name,
                   const std::string& message,
                   const core::ResolvedCommit& commit);
  Status LogDropCvd(const std::string& cvd_name);
  Status LogRepartition(
      const std::string& cvd_name,
      const std::vector<std::vector<core::VersionId>>& groups);

 private:
  friend class DurabilityScope;

  StorageManager(std::string dir, core::OrpheusDB* db)
      : dir_(std::move(dir)), db_(db) {}

  Status Recover();
  Status ApplyRecord(const WalRecord& record);

  // Loads the MANIFEST, restores its segments (in parallel) and the
  // embedded engine metadata, and records per-table clean epochs.
  // On success `*last_lsn` receives the manifest's WAL watermark.
  Status RestoreFromManifest(uint64_t* last_lsn);

  // Deletes files in <dir>/segments not named by `manifest_`.
  // `*deleted` (optional) receives the count.
  Status DeleteOrphanSegments(uint64_t* deleted);

  // Enqueues one record, waits for it unless a DurabilityScope takes
  // its ticket, then folds the WAL into a checkpoint if the policy's
  // bounds are exceeded. Appenders call through here so every logged
  // verb is a potential checkpoint trigger — the engine has fully
  // applied the verb in memory by the time it logs, so the checkpoint
  // is consistent, and the caller holds the engine's exclusive lock,
  // so flushing the queue before checkpointing is race-free.
  Status AppendChecked(WalRecordType type, std::string_view body);

  // Becomes the group leader: drains the queue into one AppendBatch
  // and completes every drained ticket. `lock` must hold group_mu_ and
  // writer_active_ must be false; the write itself happens unlocked.
  void LeadGroup(std::unique_lock<std::mutex>& lock);

  std::string dir_;
  core::OrpheusDB* db_;
  std::unique_ptr<WalWriter> wal_;
  int lock_fd_ = -1;
  uint64_t max_wal_bytes_ = 64ull << 20;
  uint64_t max_wal_records_ = 0;

  // Checkpoint state. The live manifest mirrors <dir>/MANIFEST;
  // clean_epochs_ maps table name -> rel::Table::epoch() at the moment
  // its on-disk segment was encoded (an unchanged epoch means the
  // segment is still exact). All mutated under the engine's exclusive
  // lock, like the WAL appenders.
  Manifest manifest_;
  std::map<std::string, uint64_t> clean_epochs_;
  bool incremental_ = true;
  CheckpointStats last_stats_;

  // Group-commit state. Lock ordering: group_mu_ is a leaf — never
  // acquire any other lock while holding it.
  mutable std::mutex group_mu_;
  std::condition_variable group_cv_;
  std::deque<AppendTicket> queue_;        // enqueued, not yet written
  bool writer_active_ = false;            // a leader is writing/syncing
  uint64_t queued_bytes_ = 0;             // frame bytes queued (policy input)

  // The open DurabilityScope, if any. Touched only under the engine's
  // exclusive lock, like the appenders.
  DurabilityScope* scope_ = nullptr;
};

// Collects the tickets of every record appended while it is open, so
// the appenders return without waiting. Open it under the engine's
// exclusive lock, Close() it before the lock drops, and pass the
// tickets to WaitDurable() afterwards. At most one is open per
// manager; a null manager (engine not durable) makes it a no-op.
class DurabilityScope {
 public:
  explicit DurabilityScope(StorageManager* storage);
  ~DurabilityScope() { (void)Close(); }
  DurabilityScope(const DurabilityScope&) = delete;
  DurabilityScope& operator=(const DurabilityScope&) = delete;

  // Detaches the scope (later appends wait for themselves again) and
  // hands over its tickets in enqueue order.
  std::vector<AppendTicket> Close();

 private:
  friend class StorageManager;

  StorageManager* storage_;
  std::vector<AppendTicket> tickets_;
};

}  // namespace orpheus::storage

#endif  // ORPHEUS_STORAGE_STORAGE_MANAGER_H_
