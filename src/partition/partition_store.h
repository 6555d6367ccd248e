// PartitionStore: the physical side of the partition optimizer.
//
// Materializes a Partitioning of a split-by-rlist CVD as real table
// pairs <cvd>_p<id>_data / <cvd>_p<id>_rlist inside the backing
// database, so that checking out a version touches exactly one
// partition's tables (§4.1's single-partition-per-version invariant).
// Those tables are the store's only record of what each partition
// holds: R_k's rows (and its rid index) say which records, V_k's vid
// column which versions, and S and Cavg are read off their row
// counts. The store itself keeps just the table names and the routing
// map from a version to its partition.
//
// Also implements the migration engine of §4.3: `Migrate` transforms
// the current physical layout into a new partitioning either naively
// (drop + rebuild) or intelligently (match each new partition to its
// closest existing partition by modification cost and apply row-level
// inserts/deletes).

#ifndef ORPHEUS_PARTITION_PARTITION_STORE_H_
#define ORPHEUS_PARTITION_PARTITION_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "partition/bipartite.h"
#include "relstore/database.h"

namespace orpheus::part {

class PartitionStore {
 public:
  // `source_data_table` is the CVD's unpartitioned data table (rid +
  // data attributes, indexed on rid); it remains the record source for
  // building partitions and migrations.
  PartitionStore(rel::Database* db, std::string cvd_name,
                 std::string source_data_table);
  ~PartitionStore();

  PartitionStore(const PartitionStore&) = delete;
  PartitionStore& operator=(const PartitionStore&) = delete;

  // Materializes `partitioning`; `version_rids` supplies each grouped
  // version's record list, which lands in its partition's versioning
  // table (the store keeps no other copy).
  Status Build(const Partitioning& partitioning,
               const std::map<VersionId, std::vector<RecordId>>& version_rids);

  // Single-version checkout against the owning partition's tables: runs
  // core::RlistVersionSql (Table 1's split-by-rlist checkout) and adopts
  // its rows as `table_name`.
  Status CheckoutVersion(VersionId vid, const std::string& table_name);

  // {data table, versioning table} backing `vid` (what the owning
  // split-by-rlist model's TablesFor returns for it).
  Result<std::pair<std::string, std::string>> TablesFor(VersionId vid) const;

  // One partition P_k: its data table R_k and versioning table V_k.
  struct PartTables {
    std::string data_table;
    std::string rlist_table;
  };
  // Every partition's tables, in partition order.
  const std::vector<PartTables>& partitions() const { return parts_; }

  // --- Online maintenance hooks (§4.3) --------------------------------

  // Appends a freshly committed version to an existing partition.
  Status AddVersionToPartition(VersionId vid, size_t partition,
                               const std::vector<RecordId>& rids);
  // Creates a new partition holding only `vid`. Returns its index.
  Result<size_t> AddVersionAsNewPartition(VersionId vid,
                                          const std::vector<RecordId>& rids);

  Result<size_t> PartitionOf(VersionId vid) const;

  // --- Migration (§4.3) ------------------------------------------------

  struct MigrationStats {
    double seconds = 0.0;
    int64_t rows_inserted = 0;
    int64_t rows_deleted = 0;
    int partitions_rebuilt = 0;   // built from scratch
    int partitions_modified = 0;  // transformed in place
  };

  Result<MigrationStats> Migrate(const Partitioning& new_partitioning,
                                 bool intelligent);

  // --- Cost accounting ---------------------------------------------------

  int64_t StorageRecords() const;   // S = sum |Rk|
  double AvgCheckoutCost() const;   // Cavg = sum |Vk||Rk| / n
  size_t num_partitions() const { return parts_.size(); }
  size_t num_versions() const { return vid_to_part_.size(); }

  // Version groups per partition, in partition order: each versioning
  // table's vid column (the repartition WAL record logs exactly this so
  // replay can rebuild the store).
  std::vector<std::vector<VersionId>> VersionGroups() const;

  // Drops all partition tables and clears state.
  Status DropAll();

  // --- Durability (storage subsystem) ---------------------------------

  // The private state a snapshot must carry. The partition tables
  // themselves are persisted by the database snapshot; this is just
  // the wiring between them.
  struct PersistedState {
    using Part = PartTables;
    std::string source_data_table;
    int next_phys_id = 0;
    std::vector<Part> parts;
  };
  PersistedState ExportState() const;

  // Re-attaches to partition tables already present in `db` (restored
  // from a snapshot): checks each listed pair (the data table has its
  // rid index, the versioning table is (INT vid, INT[] rlist), no
  // version sits in two partitions) and rebuilds the version->partition
  // map from the versioning tables' vid columns.
  static Result<std::unique_ptr<PartitionStore>> Restore(
      rel::Database* db, std::string cvd_name, const PersistedState& state);

 private:
  Result<PartTables> CreatePart();
  // Appends the given records (fetched from the source data table by
  // rid) to a partition's data table.
  Status InsertRecords(const PartTables& part, const std::vector<RecordId>& rids);
  Status AppendRlistRow(const PartTables& part, VersionId vid,
                        const std::vector<RecordId>& rids);
  // The rids of `rids` that `part`'s data table does not hold, in
  // input order, looked up through the table's rid index.
  Result<std::vector<RecordId>> MissingRecords(const PartTables& part,
                                               const std::vector<RecordId>& rids);
  // Row count of a partition table (0 if raw SQL dropped it).
  int64_t RowsOf(const std::string& table) const;

  rel::Database* db_;
  std::string cvd_name_;
  std::string source_data_table_;
  std::vector<PartTables> parts_;
  std::map<VersionId, size_t> vid_to_part_;
  int next_phys_id_ = 0;
};

}  // namespace orpheus::part

#endif  // ORPHEUS_PARTITION_PARTITION_STORE_H_
