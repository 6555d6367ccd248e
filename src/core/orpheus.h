// OrpheusDB: the top-level middleware facade (Figure 2 of the paper).
//
// Owns the backing relstore Database, the registered CVDs (a
// split-by-rlist CVD's model owns the optimizer's partition store), the
// user registry (access controller), and — when a durable directory is
// open — the storage manager that makes the version-control verbs
// crash-safe. The CLI and the examples talk to this class; tests may
// also reach into Cvd directly (such direct mutations bypass the commit
// WAL and are only persisted by the next checkpoint).
//
// Durability contract: with Open() active, every verb that changes a
// CVD or the user set (CreateUser/Login/InitCvd/Commit/DropCvd and
// partition-store attachment) is appended to the commit WAL after its
// in-memory apply succeeds, and the verb returns only once its record
// is durable (written and fdatasynced through the WAL's commit queue;
// EngineApi defers that wait until its engine lock drops). Reopening
// the directory replays the log on top of the latest checkpoint.
// Checkout and DiscardStaged are reads into and out of the staging
// area, and raw SQL against db() is not a verb: none of them is
// logged, and each becomes durable at the next Checkpoint() (a
// SaveSnapshot() export carries them too). See docs/PERSISTENCE.md for
// the recovery contract.

#ifndef ORPHEUS_CORE_ORPHEUS_H_
#define ORPHEUS_CORE_ORPHEUS_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cvd.h"
#include "core/query_translator.h"
#include "partition/partition_store.h"
#include "relstore/database.h"

namespace orpheus::storage {
class SnapshotCodec;
class StorageManager;
}

namespace orpheus::core {

class OrpheusDB {
 public:
  OrpheusDB();
  ~OrpheusDB();  // out of line: StorageManager is incomplete here

  rel::Database* db() { return &db_; }

  // --- Access controller ------------------------------------------------
  Status CreateUser(const std::string& name);
  Status Login(const std::string& name);  // the paper's `config`
  const std::string& WhoAmI() const { return current_user_; }

  // --- CVD lifecycle -----------------------------------------------------
  // `init`: registers a dataset as a new CVD and creates version 1.
  Result<Cvd*> InitCvd(const std::string& name, const rel::Chunk& rows,
                       CvdOptions options, const std::string& message);
  Result<Cvd*> GetCvd(const std::string& name);
  std::vector<std::string> ListCvds() const;  // `ls`
  Status DropCvd(const std::string& name);    // `drop`

  // --- Version-control verbs ---------------------------------------------
  // Wrappers over Cvd::Checkout / Commit / DiscardStaged that look the
  // CVD up by name. Commit also logs the resolved commit when storage
  // is open, so prefer it over Cvd::Commit anywhere durability matters.
  Status Checkout(const std::string& cvd_name, const std::vector<VersionId>& vids,
                  const std::string& table_name, uint64_t session = 0);
  Result<VersionId> Commit(const std::string& cvd_name,
                           const std::string& table_name,
                           const std::string& message);
  Status DiscardStaged(const std::string& cvd_name,
                       const std::string& table_name);

  // --- Versioned SQL (`run`) ---------------------------------------------
  // Translates VERSION/OF/CVD constructs, then executes.
  Result<rel::Chunk> Run(const std::string& sql);

  // The translator's view of which tables back a CVD version: the
  // split-by-rlist model's TablesFor, the same route checkout takes.
  Result<std::pair<std::string, std::string>> ResolveTables(
      const std::string& cvd_name, VersionId vid);

  // --- Partition optimizer integration -------------------------------
  // Builds `partitioning` of a split-by-rlist CVD after dropping any
  // prior store (so table names are reused) and attaches it: both
  // `optimize` and the WAL replay of its record run this.
  Status Repartition(const std::string& cvd_name,
                     const part::Partitioning& partitioning);
  // Hands a built store to the CVD's split-by-rlist model, replacing
  // any prior one; logs the repartitioning when durable.
  Status AttachPartitionStore(const std::string& cvd_name,
                              std::unique_ptr<part::PartitionStore> store);
  // nullptr if the CVD has no partition store.
  part::PartitionStore* partition_store(const std::string& cvd_name);
  // Destroys the CVD's store (dropping its partition tables). No-op
  // without a store.
  void DetachPartitionStore(const std::string& cvd_name);

  // --- Durable storage ----------------------------------------------------
  // Opens (creating if needed) a durable database directory: restores
  // the latest checkpoint, replays the commit WAL tail, and arms
  // auto-logging. Requires a fresh engine (no CVDs, no tables).
  Status Open(const std::string& dir);
  // Incremental checkpoint: writes segments for the tables changed
  // since the last one, commits them by atomically replacing the
  // MANIFEST, and resets the WAL. Requires Open().
  Status Checkpoint();
  // Exports the engine as a new database directory at `dir`: a full
  // checkpoint into a target that holds no database yet (works without
  // Open; does not arm logging). Refuses a directory that already
  // holds a database or is locked by an open engine.
  Status SaveSnapshot(const std::string& dir);

  bool durable() const { return storage_ != nullptr; }
  // Empty when not durable.
  std::string storage_dir() const;
  storage::StorageManager* storage() { return storage_.get(); }

 private:
  friend class storage::SnapshotCodec;
  friend class storage::StorageManager;

  rel::Database db_;
  // Destroyed before db_ (reverse member order): a CVD's partition
  // store drops its tables.
  std::map<std::string, std::unique_ptr<Cvd>> cvds_;
  std::set<std::string> users_;
  std::string current_user_;
  std::unique_ptr<storage::StorageManager> storage_;
};

}  // namespace orpheus::core

#endif  // ORPHEUS_CORE_ORPHEUS_H_
