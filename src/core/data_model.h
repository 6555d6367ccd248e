// The five CVD representations of §3 of the paper, behind one
// interface. Each model owns its backing tables inside the (version-
// unaware) relstore database, reads a version by issuing the checkout
// query of the paper's Table 1 and taking its rows back as a chunk
// (VersionRows), and performs that table's commit statements as direct
// appends to its tables.
//
//  - kTablePerVersion : one table per version (storage baseline)
//  - kCombinedTable   : single table with a `vlist INT[]` per record
//  - kSplitByVlist    : data table + versioning table keyed by rid
//  - kSplitByRlist    : data table + versioning table keyed by vid
//                       (the model OrpheusDB adopts)
//  - kDeltaBased      : per-version delta tables with tombstones
//
// Division of labour: the CVD layer (cvd.h) is the record manager — it
// resolves which staged rows are new records and assigns rids. Models
// only persist and retrieve.
//
// Partitions: a split-by-rlist model owns the optimizer's
// PartitionStore (§4.1); its TablesFor is the one route from a version
// to the tables that hold it.
//
// Reads: VersionRows (rid + data attributes) and VersionRecords (rids
// only) are each model's only reads of a version. Neither creates,
// drops or renames a table, so they are safe under the engine's shared
// lock; the caller that wants a table (checkout) adopts the chunk.
//
// Execution: every read here except the delta model's replay bottoms
// out in relstore SQL, so the scans (vlist containment, unnest joins,
// rid probes) run on the executor's batched parallel pipeline and scale
// with --threads (see relstore/executor.h). Models never spawn threads
// themselves.

#ifndef ORPHEUS_CORE_DATA_MODEL_H_
#define ORPHEUS_CORE_DATA_MODEL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/record.h"
#include "core/version_graph.h"
#include "relstore/database.h"

namespace orpheus::part {
class PartitionStore;
}

namespace orpheus::core {

enum class DataModelKind {
  kTablePerVersion,
  kCombinedTable,
  kSplitByVlist,
  kSplitByRlist,
  kDeltaBased,
};

const char* DataModelKindName(DataModelKind kind);
Result<DataModelKind> DataModelKindFromName(const std::string& name);

// Table 1's split-by-rlist checkout of version `vid` (rid + data
// attributes): the model's VersionRows, a partition's checkout and the
// translator's `VERSION v OF CVD c` all issue it.
std::string RlistVersionSql(const std::string& data_table,
                            const std::string& versioning_table, VersionId vid);

class DataModel {
 public:
  // `data_schema` holds the data attributes only; models prepend rid.
  DataModel(rel::Database* db, std::string cvd_name, rel::Schema data_schema);
  virtual ~DataModel() = default;

  DataModel(const DataModel&) = delete;
  DataModel& operator=(const DataModel&) = delete;

  virtual DataModelKind kind() const = 0;

  // Creates the backing tables. Called once per CVD.
  virtual Status Init() = 0;

  // Registers version `vid` whose full record set is `rids`, in
  // committed row order. `new_records` contains exactly the records
  // not previously in the CVD (rid + data attributes, rid ascending).
  // A model for which ReadsContent() is true also reads `content`,
  // the version's records (rid + data attributes), row for row with
  // `rids`; the others get an empty chunk.
  // `primary_parent` is the parent sharing the most records (-1 for
  // the initial version); only the delta model depends on it.
  virtual Status AddVersion(VersionId vid, const rel::Chunk& content,
                            const std::vector<RecordId>& rids,
                            const rel::Chunk& new_records,
                            VersionId primary_parent) = 0;

  // Whether AddVersion reads `content`. Commit builds the committed
  // content only for models that do.
  virtual bool ReadsContent() const { return true; }

  // Version `vid`'s rows (rid + data attributes): the model's Table 1
  // checkout query without INTO, read back as a chunk. Checkout, merges,
  // diff, commit's parent rows and WAL replay all read a version here.
  virtual Result<rel::Chunk> VersionRows(VersionId vid) = 0;

  // Whether VersionRows(vid) reads this model's own tables, not a
  // partition's. Only then does a checkout keep its rows for commit.
  virtual bool ServesFromOwnTables(VersionId) const { return true; }

  // The rid set of a version (record-manager bookkeeping).
  virtual Result<std::vector<RecordId>> VersionRecords(VersionId vid) = 0;

  // Payload + index bytes across this model's backing tables.
  virtual int64_t StorageBytes() const = 0;

  // Rebuilds model-private bookkeeping after a snapshot restore, when
  // the backing tables already exist in the database (so Init must not
  // be called). TPV recovers its version list from the graph; the
  // delta model reloads its base map from <cvd>_deltameta. Default:
  // stateless models need nothing.
  virtual Status RestoreFromTables(const VersionGraph& graph);

  // Schema evolution (§3.3) through AlignDataTables: only the split
  // models name data tables; the others return NotSupported.
  Status AddDataColumn(const std::string& name, rel::DataType type);
  Status WidenDataColumn(const std::string& name, rel::DataType type);

  const rel::Schema& data_schema() const { return data_schema_; }
  const std::string& cvd_name() const { return cvd_name_; }
  // rid + data attributes: the schema of records and version rows.
  rel::Schema RecordSchema() const;

 protected:
  // Comma-separated "rid, a1, a2, ..." projection list.
  std::string RecordColumnList() const;

  // The tables holding every data attribute (rid + data attributes).
  virtual std::vector<std::string> DataTables() const { return {}; }
  // Brings each of DataTables() to `schema` (adds missing attributes,
  // NULL-filled; widens narrower ones) and adopts it as data_schema_.
  Status AlignDataTables(rel::Schema schema);

  int64_t TableBytes(const std::string& table) const;

  rel::Database* db_;
  std::string cvd_name_;
  rel::Schema data_schema_;
};

// Factory for all five models.
std::unique_ptr<DataModel> MakeDataModel(DataModelKind kind, rel::Database* db,
                                         const std::string& cvd_name,
                                         rel::Schema data_schema);

// --- Concrete models (exposed for white-box tests) -------------------

class TablePerVersionModel : public DataModel {
 public:
  using DataModel::DataModel;
  DataModelKind kind() const override { return DataModelKind::kTablePerVersion; }
  Status Init() override;
  Status AddVersion(VersionId vid, const rel::Chunk& content,
                    const std::vector<RecordId>& rids,
                    const rel::Chunk& new_records,
                    VersionId primary_parent) override;
  Result<rel::Chunk> VersionRows(VersionId vid) override;
  Result<std::vector<RecordId>> VersionRecords(VersionId vid) override;
  int64_t StorageBytes() const override;
  Status RestoreFromTables(const VersionGraph& graph) override;

 private:
  std::string VersionTable(VersionId vid) const;
  std::vector<VersionId> versions_;
};

class CombinedTableModel : public DataModel {
 public:
  using DataModel::DataModel;
  DataModelKind kind() const override { return DataModelKind::kCombinedTable; }
  Status Init() override;
  Status AddVersion(VersionId vid, const rel::Chunk& content,
                    const std::vector<RecordId>& rids,
                    const rel::Chunk& new_records,
                    VersionId primary_parent) override;
  bool ReadsContent() const override { return false; }
  Result<rel::Chunk> VersionRows(VersionId vid) override;
  Result<std::vector<RecordId>> VersionRecords(VersionId vid) override;
  int64_t StorageBytes() const override;

 private:
  std::string CombinedTable() const { return cvd_name_ + "_combined"; }
};

class SplitByVlistModel : public DataModel {
 public:
  using DataModel::DataModel;
  DataModelKind kind() const override { return DataModelKind::kSplitByVlist; }
  Status Init() override;
  Status AddVersion(VersionId vid, const rel::Chunk& content,
                    const std::vector<RecordId>& rids,
                    const rel::Chunk& new_records,
                    VersionId primary_parent) override;
  bool ReadsContent() const override { return false; }
  Result<rel::Chunk> VersionRows(VersionId vid) override;
  Result<std::vector<RecordId>> VersionRecords(VersionId vid) override;
  int64_t StorageBytes() const override;

 private:
  std::vector<std::string> DataTables() const override { return {DataTable()}; }
  std::string DataTable() const { return cvd_name_ + "_data"; }
  std::string VersioningTable() const { return cvd_name_ + "_vlist"; }
};

class SplitByRlistModel : public DataModel {
 public:
  using DataModel::DataModel;
  ~SplitByRlistModel() override;  // out of line: PartitionStore is incomplete
  DataModelKind kind() const override { return DataModelKind::kSplitByRlist; }
  Status Init() override;
  // Appends the new records and one (vid, rids) tuple directly, as a
  // bulk load would. A version committed after the partitions were
  // built lives only in these tables.
  Status AddVersion(VersionId vid, const rel::Chunk& content,
                    const std::vector<RecordId>& rids,
                    const rel::Chunk& new_records,
                    VersionId primary_parent) override;
  bool ReadsContent() const override { return false; }
  Result<rel::Chunk> VersionRows(VersionId vid) override;
  Result<std::vector<RecordId>> VersionRecords(VersionId vid) override;
  bool ServesFromOwnTables(VersionId vid) const override;
  int64_t StorageBytes() const override;
  // {data table, versioning table} holding version `vid`: the owning
  // partition's, else the model's own (for vid < 0, i.e. all versions,
  // and for a version committed after the partitioning).
  std::pair<std::string, std::string> TablesFor(VersionId vid) const;

  // The optimizer's partitions of this CVD, or nullptr.
  part::PartitionStore* partition_store() const { return store_.get(); }
  // Replaces the store (nullptr detaches); the old one drops its tables.
  // Aligns the partitions' data tables: a checkpoint from a build whose
  // schema evolution skipped partitions holds them without the later
  // attributes.
  Status SetPartitionStore(std::unique_ptr<part::PartitionStore> store);

  // Every version's rid list, in one pass over the versioning table.
  Result<std::map<VersionId, std::vector<RecordId>>> AllVersionRecords() const;

  // The model's own tables; the partitions are built from them.
  std::string DataTable() const { return cvd_name_ + "_data"; }
  std::string VersioningTable() const { return cvd_name_ + "_rlist"; }

 private:
  // The model's data table, then each partition's: schema evolution
  // alters the partitions too, so they serve the record schema.
  std::vector<std::string> DataTables() const override;

  std::unique_ptr<part::PartitionStore> store_;
};

class DeltaBasedModel : public DataModel {
 public:
  using DataModel::DataModel;
  DataModelKind kind() const override { return DataModelKind::kDeltaBased; }
  Status Init() override;
  Status AddVersion(VersionId vid, const rel::Chunk& content,
                    const std::vector<RecordId>& rids,
                    const rel::Chunk& new_records,
                    VersionId primary_parent) override;
  Result<rel::Chunk> VersionRows(VersionId vid) override;
  Result<std::vector<RecordId>> VersionRecords(VersionId vid) override;
  int64_t StorageBytes() const override;
  Status RestoreFromTables(const VersionGraph& graph) override;

 private:
  std::string DeltaTable(VersionId vid) const;
  // Walks vid -> base -> ... -> root, newest first.
  Result<std::vector<VersionId>> Lineage(VersionId vid) const;

  // Precedent metadata: vid -> base version (also persisted in the
  // <cvd>_deltameta table for inspection).
  std::map<VersionId, VersionId> base_;
};

}  // namespace orpheus::core

#endif  // ORPHEUS_CORE_DATA_MODEL_H_
