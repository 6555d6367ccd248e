#include "partition/partition_store.h"

#include <algorithm>
#include <unordered_set>

#include "common/flat_join_table.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/data_model.h"

namespace orpheus::part {

PartitionStore::PartitionStore(rel::Database* db, std::string cvd_name,
                               std::string source_data_table)
    : db_(db),
      cvd_name_(std::move(cvd_name)),
      source_data_table_(std::move(source_data_table)) {}

PartitionStore::~PartitionStore() { (void)DropAll(); }

Result<PartitionStore::PartTables> PartitionStore::CreatePart() {
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * source, db_->GetTable(source_data_table_));
  PartTables part;
  int id = next_phys_id_++;
  part.data_table = cvd_name_ + "_p" + std::to_string(id) + "_data";
  part.rlist_table = cvd_name_ + "_p" + std::to_string(id) + "_rlist";
  ORPHEUS_RETURN_NOT_OK(
      db_->CreateTable(part.data_table, source->schema(), {"rid"}));
  rel::Schema versioning;
  versioning.AddColumn("vid", rel::DataType::kInt64);
  versioning.AddColumn("rlist", rel::DataType::kIntArray);
  ORPHEUS_RETURN_NOT_OK(
      db_->CreateTable(part.rlist_table, std::move(versioning), {"vid"}));
  return part;
}

Status PartitionStore::InsertRecords(const PartTables& part,
                                     const std::vector<RecordId>& rids) {
  if (rids.empty()) return Status::OK();
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * source, db_->GetTable(source_data_table_));
  // Build the rid index once up front, then resolve rid -> row
  // position batch-parallel with plain reads of it (the same fixed
  // batching the scan executor uses; slot-per-rid writes keep the
  // result order deterministic).
  ORPHEUS_ASSIGN_OR_RETURN(const FlatJoinTable* index, source->Index("rid"));
  std::vector<uint32_t> rows(rids.size());
  ORPHEUS_RETURN_NOT_OK(ParallelBatchFor(
      rids.size(), rel::kScanBatchRows,
      [&](size_t begin, size_t end, size_t) -> Status {
        for (size_t i = begin; i < end; ++i) {
          rows[i] = index->Find(rids[i]);
          if (rows[i] == FlatJoinTable::kEnd) {
            return Status::NotFound("record not in source data table: " +
                                    std::to_string(rids[i]));
          }
        }
        return Status::OK();
      }));
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * dest, db_->GetTable(part.data_table));
  dest->mutable_chunk().GatherFrom(source->data(), rows);
  return Status::OK();
}

Status PartitionStore::AppendRlistRow(const PartTables& part, VersionId vid,
                                      const std::vector<RecordId>& rids) {
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * rlist, db_->GetTable(part.rlist_table));
  rel::Chunk& chunk = rlist->mutable_chunk();
  chunk.mutable_column(0).AppendInt(vid);
  chunk.mutable_column(1).AppendArray(rel::IntArray(rids.begin(), rids.end()));
  return Status::OK();
}

Result<std::vector<RecordId>> PartitionStore::MissingRecords(
    const PartTables& part, const std::vector<RecordId>& rids) {
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * data, db_->GetTable(part.data_table));
  ORPHEUS_ASSIGN_OR_RETURN(const FlatJoinTable* index, data->Index("rid"));
  std::vector<RecordId> missing;
  for (RecordId rid : rids) {
    if (index->Find(rid) == FlatJoinTable::kEnd) missing.push_back(rid);
  }
  return missing;
}

int64_t PartitionStore::RowsOf(const std::string& table) const {
  Result<rel::Table*> t = db_->GetTable(table);
  return t.ok() ? static_cast<int64_t>(t.value()->num_rows()) : 0;
}

Status PartitionStore::Build(
    const Partitioning& partitioning,
    const std::map<VersionId, std::vector<RecordId>>& version_rids) {
  ORPHEUS_RETURN_NOT_OK(DropAll());
  for (const std::vector<VersionId>& group : partitioning.groups) {
    ORPHEUS_ASSIGN_OR_RETURN(PartTables part, CreatePart());
    parts_.push_back(part);
    // Union of the group's records.
    std::unordered_set<RecordId> unioned;
    for (VersionId vid : group) {
      auto it = version_rids.find(vid);
      if (it == version_rids.end()) {
        return Status::InvalidArgument("missing record list for version " +
                                       std::to_string(vid));
      }
      unioned.insert(it->second.begin(), it->second.end());
    }
    std::vector<RecordId> sorted(unioned.begin(), unioned.end());
    std::sort(sorted.begin(), sorted.end());
    ORPHEUS_RETURN_NOT_OK(InsertRecords(part, sorted));
    for (VersionId vid : group) {
      ORPHEUS_RETURN_NOT_OK(AppendRlistRow(part, vid, version_rids.at(vid)));
      vid_to_part_[vid] = parts_.size() - 1;
    }
  }
  return Status::OK();
}

Status PartitionStore::CheckoutVersion(VersionId vid,
                                       const std::string& table_name) {
  ORPHEUS_ASSIGN_OR_RETURN(auto t, TablesFor(vid));
  ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk rows,
                           db_->Execute(core::RlistVersionSql(t.first, t.second, vid)));
  return db_->AdoptTable(table_name, std::move(rows));
}

Result<std::pair<std::string, std::string>> PartitionStore::TablesFor(
    VersionId vid) const {
  ORPHEUS_ASSIGN_OR_RETURN(size_t k, PartitionOf(vid));
  return std::make_pair(parts_[k].data_table, parts_[k].rlist_table);
}

Result<size_t> PartitionStore::PartitionOf(VersionId vid) const {
  auto it = vid_to_part_.find(vid);
  if (it == vid_to_part_.end()) {
    return Status::NotFound("version not in any partition: " + std::to_string(vid));
  }
  return it->second;
}

Status PartitionStore::AddVersionToPartition(VersionId vid, size_t partition,
                                             const std::vector<RecordId>& rids) {
  if (partition >= parts_.size()) {
    return Status::InvalidArgument("no such partition: " + std::to_string(partition));
  }
  if (vid_to_part_.count(vid) > 0) {
    return Status::AlreadyExists("version already placed: " + std::to_string(vid));
  }
  const PartTables& part = parts_[partition];
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<RecordId> fresh, MissingRecords(part, rids));
  ORPHEUS_RETURN_NOT_OK(InsertRecords(part, fresh));
  ORPHEUS_RETURN_NOT_OK(AppendRlistRow(part, vid, rids));
  vid_to_part_[vid] = partition;
  return Status::OK();
}

Result<size_t> PartitionStore::AddVersionAsNewPartition(
    VersionId vid, const std::vector<RecordId>& rids) {
  if (vid_to_part_.count(vid) > 0) {
    return Status::AlreadyExists("version already placed: " + std::to_string(vid));
  }
  ORPHEUS_ASSIGN_OR_RETURN(PartTables part, CreatePart());
  std::vector<RecordId> sorted = rids;
  std::sort(sorted.begin(), sorted.end());
  ORPHEUS_RETURN_NOT_OK(InsertRecords(part, sorted));
  ORPHEUS_RETURN_NOT_OK(AppendRlistRow(part, vid, rids));
  size_t k = parts_.size();
  vid_to_part_[vid] = k;
  parts_.push_back(std::move(part));
  return k;
}

Result<PartitionStore::MigrationStats> PartitionStore::Migrate(
    const Partitioning& new_partitioning, bool intelligent) {
  WallTimer timer;
  MigrationStats stats;

  // Every placed version's record list, read once from the current
  // versioning tables. The target partitions' record sets come from
  // these lists alone — the paper's "calculate the number of common
  // records based on the version graph without probing Ri".
  std::map<VersionId, std::vector<RecordId>> version_rids;
  for (const PartTables& part : parts_) {
    ORPHEUS_ASSIGN_OR_RETURN(rel::Table * rlist, db_->GetTable(part.rlist_table));
    const std::vector<int64_t>& vids = rlist->data().column(0).ints();
    const std::vector<rel::IntArray>& lists = rlist->data().column(1).arrays();
    for (size_t r = 0; r < vids.size(); ++r) version_rids[vids[r]] = lists[r];
  }
  // Sorted record sets of the target partitions.
  std::vector<std::vector<RecordId>> new_sets;
  new_sets.reserve(new_partitioning.groups.size());
  for (const std::vector<VersionId>& group : new_partitioning.groups) {
    std::unordered_set<RecordId> s;
    for (VersionId vid : group) {
      auto it = version_rids.find(vid);
      if (it == version_rids.end()) {
        return Status::InvalidArgument("migration target references unknown version " +
                                       std::to_string(vid));
      }
      s.insert(it->second.begin(), it->second.end());
    }
    std::vector<RecordId> sorted(s.begin(), s.end());
    std::sort(sorted.begin(), sorted.end());
    new_sets.push_back(std::move(sorted));
  }

  if (!intelligent) {
    // Naive: drop everything and rebuild from scratch.
    ORPHEUS_RETURN_NOT_OK(Build(new_partitioning, version_rids));
    stats.partitions_rebuilt = static_cast<int>(parts_.size());
    stats.rows_inserted = StorageRecords();
    stats.seconds = timer.ElapsedSeconds();
    return stats;
  }

  // Intelligent: match each new partition with its closest old
  // partition. As in §4.3, the matching itself avoids probing record
  // sets: it "first finds the common versions" — partitions sharing
  // the most record-weighted versions are the cheapest to transform
  // into each other. The exact insert/delete lists are only computed
  // for the chosen pairs.
  size_t n_new = new_sets.size();
  size_t n_old = parts_.size();
  std::vector<std::vector<int64_t>> common(n_new, std::vector<int64_t>(n_old, 0));
  for (size_t i = 0; i < n_new; ++i) {
    for (VersionId vid : new_partitioning.groups[i]) {
      common[i][vid_to_part_.at(vid)] +=
          static_cast<int64_t>(version_rids.at(vid).size());
    }
  }
  struct Pair {
    int64_t score;  // record-weighted common versions
    size_t ni;
    size_t oj;
  };
  std::vector<Pair> pairs;
  for (size_t i = 0; i < n_new; ++i) {
    for (size_t j = 0; j < n_old; ++j) {
      if (common[i][j] > 0) pairs.push_back({common[i][j], i, j});
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& x, const Pair& y) { return x.score > y.score; });

  std::vector<int> match_of_new(n_new, -1);
  std::vector<char> old_used(n_old, 0);
  for (const Pair& pair : pairs) {
    if (match_of_new[pair.ni] >= 0 || old_used[pair.oj]) continue;
    match_of_new[pair.ni] = static_cast<int>(pair.oj);
    old_used[pair.oj] = 1;
  }

  std::vector<PartTables> new_parts;
  std::map<VersionId, size_t> new_vid_to_part;
  for (size_t i = 0; i < n_new; ++i) {
    const std::vector<VersionId>& group = new_partitioning.groups[i];
    const std::vector<RecordId>& target = new_sets[i];
    bool rebuild = match_of_new[i] < 0;
    PartTables part;
    if (!rebuild) {
      // Transform the matched old partition in place: delete the rows
      // no target version needs, insert the missing ones.
      part = parts_[static_cast<size_t>(match_of_new[i])];
      ORPHEUS_ASSIGN_OR_RETURN(std::vector<RecordId> to_insert,
                               MissingRecords(part, target));
      ORPHEUS_ASSIGN_OR_RETURN(rel::Table * data, db_->GetTable(part.data_table));
      FlatJoinTable wanted;
      wanted.Build(target);
      const std::vector<int64_t>& rids_col =
          data->data().column(data->schema().FindColumn("rid")).ints();
      std::vector<bool> keep(rids_col.size());
      int64_t deletes = 0;
      for (size_t r = 0; r < rids_col.size(); ++r) {
        keep[r] = wanted.Find(rids_col[r]) != FlatJoinTable::kEnd;
        if (!keep[r]) ++deletes;
      }
      // §4.3: if transforming costs more than building |R'i| rows from
      // scratch, rebuild instead.
      rebuild = deletes + static_cast<int64_t>(to_insert.size()) >
                static_cast<int64_t>(target.size());
      if (rebuild) {
        ORPHEUS_RETURN_NOT_OK(db_->DropTable(part.data_table, true));
        ORPHEUS_RETURN_NOT_OK(db_->DropTable(part.rlist_table, true));
      } else {
        if (deletes > 0) {
          data->mutable_chunk().FilterRows(keep);
          stats.rows_deleted += deletes;
        }
        ORPHEUS_RETURN_NOT_OK(InsertRecords(part, to_insert));
        stats.rows_inserted += static_cast<int64_t>(to_insert.size());
        ORPHEUS_ASSIGN_OR_RETURN(rel::Table * rlist, db_->GetTable(part.rlist_table));
        rlist->mutable_chunk().Clear();
        ++stats.partitions_modified;
      }
    }
    if (rebuild) {
      ORPHEUS_ASSIGN_OR_RETURN(part, CreatePart());
      ORPHEUS_RETURN_NOT_OK(InsertRecords(part, target));
      stats.rows_inserted += static_cast<int64_t>(target.size());
      ++stats.partitions_rebuilt;
    }
    for (VersionId vid : group) {
      ORPHEUS_RETURN_NOT_OK(AppendRlistRow(part, vid, version_rids.at(vid)));
      new_vid_to_part[vid] = new_parts.size();
    }
    new_parts.push_back(std::move(part));
  }

  // Drop old partitions that were not reused.
  for (size_t j = 0; j < n_old; ++j) {
    if (old_used[j]) continue;
    ORPHEUS_RETURN_NOT_OK(db_->DropTable(parts_[j].data_table, true));
    ORPHEUS_RETURN_NOT_OK(db_->DropTable(parts_[j].rlist_table, true));
  }
  parts_ = std::move(new_parts);
  vid_to_part_ = std::move(new_vid_to_part);
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

PartitionStore::PersistedState PartitionStore::ExportState() const {
  return {source_data_table_, next_phys_id_, parts_};
}

Result<std::unique_ptr<PartitionStore>> PartitionStore::Restore(
    rel::Database* db, std::string cvd_name, const PersistedState& state) {
  // Check every table before a store exists: a store drops its tables
  // when destroyed, so a failed restore must not have built one.
  std::map<VersionId, size_t> vid_to_part;
  for (size_t k = 0; k < state.parts.size(); ++k) {
    const PartTables& part = state.parts[k];
    ORPHEUS_ASSIGN_OR_RETURN(rel::Table * data, db->GetTable(part.data_table));
    ORPHEUS_ASSIGN_OR_RETURN(rel::Table * rlist, db->GetTable(part.rlist_table));
    const rel::Schema& versioning = rlist->schema();
    if (!data->HasIndex("rid") || versioning.num_columns() != 2 ||
        versioning.column(0).type != rel::DataType::kInt64 ||
        versioning.column(1).type != rel::DataType::kIntArray) {
      return Status::Internal("malformed partition tables: " + part.data_table +
                              ", " + part.rlist_table);
    }
    for (int64_t vid : rlist->data().column(0).ints()) {
      if (!vid_to_part.emplace(vid, k).second) {
        return Status::Internal("version in two partitions: " + std::to_string(vid));
      }
    }
  }
  auto store = std::unique_ptr<PartitionStore>(
      new PartitionStore(db, std::move(cvd_name), state.source_data_table));
  store->next_phys_id_ = state.next_phys_id;
  store->parts_ = state.parts;
  store->vid_to_part_ = std::move(vid_to_part);
  return store;
}

std::vector<std::vector<VersionId>> PartitionStore::VersionGroups() const {
  std::vector<std::vector<VersionId>> groups;
  groups.reserve(parts_.size());
  for (const PartTables& part : parts_) {
    Result<rel::Table*> rlist = db_->GetTable(part.rlist_table);
    groups.push_back(rlist.ok() ? rlist.value()->data().column(0).ints()
                                : std::vector<VersionId>());
  }
  return groups;
}

int64_t PartitionStore::StorageRecords() const {
  int64_t total = 0;
  for (const PartTables& part : parts_) total += RowsOf(part.data_table);
  return total;
}

double PartitionStore::AvgCheckoutCost() const {
  if (vid_to_part_.empty()) return 0.0;
  int64_t weighted = 0;
  for (const PartTables& part : parts_) {
    weighted += RowsOf(part.rlist_table) * RowsOf(part.data_table);
  }
  return static_cast<double>(weighted) /
         static_cast<double>(vid_to_part_.size());
}

Status PartitionStore::DropAll() {
  for (const PartTables& part : parts_) {
    ORPHEUS_RETURN_NOT_OK(db_->DropTable(part.data_table, true));
    ORPHEUS_RETURN_NOT_OK(db_->DropTable(part.rlist_table, true));
  }
  parts_.clear();
  vid_to_part_.clear();
  return Status::OK();
}

}  // namespace orpheus::part
