// Table: a named base relation — columnar payload plus primary key,
// secondary indexes, and a physical-clustering marker.
//
// Physical model. relstore is an in-memory engine, but the paper's
// cost analysis (Appendix D.1) is about page I/O, so tables expose a
// simple page model: rows live in insertion order (or sorted by the
// clustering column after ClusterBy), packed `rows_per_page()` to a
// page. The executor counts page touches against this model so the
// Figure 19 experiments can report modeled I/O alongside wall time.
//
// Indexes are FlatJoinTables (common/flat_join_table.h), the same
// structure the hash join builds, maintained lazily: DML invalidates,
// the next Index() call rebuilds. This matches the access pattern of
// OrpheusDB (bulk commit, then many checkouts).
//
// Thread-safety: the payload is not internally synchronized — the
// engine's discipline is single-writer: all DML/DDL happens under the
// engine's exclusive lock, and scan workers only ever read
// chunk()/data(). The one mutation a READ statement can perform — the
// lazy index (re)build in Index — is serialized by an internal mutex,
// so concurrent read-only statements (which share the engine lock) may
// race to build the same index safely: one builds, the others wait and
// reuse it. An index handed out by Index stays immutable until the
// next DML, which cannot overlap a reader by the engine-lock contract.

#ifndef ORPHEUS_RELSTORE_TABLE_H_
#define ORPHEUS_RELSTORE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_join_table.h"
#include "common/status.h"
#include "relstore/chunk.h"

namespace orpheus::rel {

class Table {
 public:
  Table(std::string name, Schema schema, std::vector<std::string> primary_key);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return chunk_.schema(); }
  const std::vector<std::string>& primary_key() const { return primary_key_; }

  const Chunk& chunk() const { return chunk_; }
  Chunk& mutable_chunk() {
    InvalidateIndexes();
    return chunk_;
  }
  // Read-only access that does not invalidate indexes.
  const Chunk& data() const { return chunk_; }

  size_t num_rows() const { return chunk_.num_rows(); }

  // --- DML helpers -------------------------------------------------

  Status AppendRow(const std::vector<Value>& values);

  // Schema evolution (the middleware's ALTER TABLE equivalents).
  Status AddColumn(const std::string& name, DataType type);
  Status AlterColumnType(const std::string& name, DataType new_type);

  // --- Indexing ----------------------------------------------------

  // Declares a (non-unique) index on an INT column. Building is lazy.
  Status DeclareIndex(const std::string& column);
  bool HasIndex(const std::string& column) const;

  // Columns with a declared index, in sorted order (snapshot codec;
  // deterministic so snapshots of equal states are byte-equal).
  std::vector<std::string> DeclaredIndexColumns() const;

  // The index on `column`: a FlatJoinTable from each non-NULL value
  // to the rows holding it, every chain in ascending row order. Built
  // on the first call after a modification; NotFound unless an index
  // was declared on `column`. The table stays immutable until the
  // next DML, so scan workers may probe it once the coordinating
  // thread holds the pointer (the executor's INL probe batches and
  // the partition build's rid resolution do exactly this).
  Result<const FlatJoinTable*> Index(const std::string& column);

  void InvalidateIndexes();

  // --- Physical layout ---------------------------------------------

  // Sorts rows by an INT column and records it as the clustering key.
  Status ClusterBy(const std::string& column);
  const std::string& clustered_on() const { return clustered_on_; }

  // Restores the clustering marker without re-sorting (snapshot
  // restore: rows were serialized already in clustered order).
  void RestoreClusteredMarker(std::string column) {
    clustered_on_ = std::move(column);
    BumpEpoch();  // the marker is part of the serialized form
  }

  // Page model: how many rows share a (simulated) 8 KiB page, derived
  // from the average row width.
  int64_t rows_per_page() const;
  int64_t num_pages() const;
  // Page number of a row position under the current physical order.
  int64_t PageOfRow(size_t row) const { return static_cast<int64_t>(row) / rows_per_page(); }

  int64_t ByteSize() const;

  // Modeled index footprint, counted into storage sizes as the paper
  // does ("we count the index size as well"): a fixed 16 bytes per row
  // per declared index, built or not — a model of a disk index, not
  // the FlatJoinTable's in-memory allocation.
  int64_t IndexByteSize() const;

  // --- Dirty tracking (incremental checkpoints) --------------------
  //
  // A process-wide monotonic stamp, advanced on construction and by
  // every path that can change the table's serialized bytes (all DML
  // funnels through InvalidateIndexes; DeclareIndex changes the
  // encoded index list without touching data). The storage manager
  // records the stamp at each checkpoint: an unchanged stamp means the
  // segment on disk is still exact. The counter is global, never
  // per-table, so a dropped-and-recreated table can never alias a
  // stale recorded stamp. Conservative by design — mutable_chunk()
  // marks dirty even if the caller ends up not writing.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

 private:
  struct IntIndex {
    bool built = false;
    FlatJoinTable table;
  };

  // Serializes lazy index builds against each other (concurrent
  // read-only statements); see the class comment.
  std::mutex index_mu_;

  void BumpEpoch() { epoch_.store(NextEpoch(), std::memory_order_relaxed); }
  static uint64_t NextEpoch();

  std::string name_;
  Chunk chunk_;
  std::vector<std::string> primary_key_;
  std::unordered_map<std::string, IntIndex> indexes_;
  std::string clustered_on_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace orpheus::rel

#endif  // ORPHEUS_RELSTORE_TABLE_H_
