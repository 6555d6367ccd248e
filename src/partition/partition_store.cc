#include "partition/partition_store.h"

#include <algorithm>
#include <limits>

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

Result<PartitionStore::Phys> PartitionStore::CreatePhys() {
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * source, db_->GetTable(source_data_table_));
  Phys phys;
  int id = next_phys_id_++;
  phys.data_table = cvd_name_ + "_p" + std::to_string(id) + "_data";
  phys.rlist_table = cvd_name_ + "_p" + std::to_string(id) + "_rlist";
  ORPHEUS_RETURN_NOT_OK(
      db_->CreateTable(phys.data_table, source->schema(), {"rid"}));
  rel::Schema versioning;
  versioning.AddColumn("vid", rel::DataType::kInt64);
  versioning.AddColumn("rlist", rel::DataType::kIntArray);
  ORPHEUS_RETURN_NOT_OK(
      db_->CreateTable(phys.rlist_table, std::move(versioning), {"vid"}));
  return phys;
}

Status PartitionStore::InsertRecords(Phys* phys,
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
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * dest, db_->GetTable(phys->data_table));
  dest->mutable_chunk().GatherFrom(source->data(), rows);
  phys->records.insert(rids.begin(), rids.end());
  return Status::OK();
}

Status PartitionStore::AppendRlistRow(Phys* phys, VersionId vid,
                                      const std::vector<RecordId>& rids) {
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * rlist, db_->GetTable(phys->rlist_table));
  rel::Chunk& chunk = rlist->mutable_chunk();
  chunk.mutable_column(0).AppendInt(vid);
  chunk.mutable_column(1).AppendArray(rel::IntArray(rids.begin(), rids.end()));
  phys->versions.push_back(vid);
  return Status::OK();
}

Status PartitionStore::Build(const Partitioning& partitioning,
                             std::map<VersionId, std::vector<RecordId>> version_rids) {
  ORPHEUS_RETURN_NOT_OK(DropAll());
  version_rids_ = std::move(version_rids);
  for (const std::vector<VersionId>& group : partitioning.groups) {
    ORPHEUS_ASSIGN_OR_RETURN(Phys phys, CreatePhys());
    // Union of the group's records.
    std::unordered_set<RecordId> unioned;
    for (VersionId vid : group) {
      auto it = version_rids_.find(vid);
      if (it == version_rids_.end()) {
        return Status::InvalidArgument("missing record list for version " +
                                       std::to_string(vid));
      }
      unioned.insert(it->second.begin(), it->second.end());
    }
    std::vector<RecordId> sorted(unioned.begin(), unioned.end());
    std::sort(sorted.begin(), sorted.end());
    ORPHEUS_RETURN_NOT_OK(InsertRecords(&phys, sorted));
    for (VersionId vid : group) {
      ORPHEUS_RETURN_NOT_OK(AppendRlistRow(&phys, vid, version_rids_.at(vid)));
      vid_to_part_[vid] = parts_.size();
    }
    parts_.push_back(std::move(phys));
  }
  return Status::OK();
}

Status PartitionStore::CheckoutVersion(VersionId vid,
                                       const std::string& table_name) {
  ORPHEUS_ASSIGN_OR_RETURN(auto t, TablesFor(vid));
  return db_->Execute(core::RlistVersionSql(t.first, t.second, vid, table_name)).status();
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
  Phys& phys = parts_[partition];
  std::vector<RecordId> fresh;
  for (RecordId rid : rids) {
    if (phys.records.count(rid) == 0) fresh.push_back(rid);
  }
  ORPHEUS_RETURN_NOT_OK(InsertRecords(&phys, fresh));
  ORPHEUS_RETURN_NOT_OK(AppendRlistRow(&phys, vid, rids));
  vid_to_part_[vid] = partition;
  version_rids_[vid] = rids;
  return Status::OK();
}

Result<size_t> PartitionStore::AddVersionAsNewPartition(
    VersionId vid, const std::vector<RecordId>& rids) {
  if (vid_to_part_.count(vid) > 0) {
    return Status::AlreadyExists("version already placed: " + std::to_string(vid));
  }
  ORPHEUS_ASSIGN_OR_RETURN(Phys phys, CreatePhys());
  std::vector<RecordId> sorted = rids;
  std::sort(sorted.begin(), sorted.end());
  ORPHEUS_RETURN_NOT_OK(InsertRecords(&phys, sorted));
  ORPHEUS_RETURN_NOT_OK(AppendRlistRow(&phys, vid, rids));
  size_t k = parts_.size();
  vid_to_part_[vid] = k;
  version_rids_[vid] = rids;
  parts_.push_back(std::move(phys));
  return k;
}

Result<PartitionStore::MigrationStats> PartitionStore::Migrate(
    const Partitioning& new_partitioning, bool intelligent) {
  WallTimer timer;
  MigrationStats stats;

  // Record sets of the target partitions (from the in-memory mirror of
  // the versioning data — this is the paper's "calculate the number of
  // common records based on the version graph without probing Ri").
  std::vector<std::unordered_set<RecordId>> new_sets;
  new_sets.reserve(new_partitioning.groups.size());
  for (const std::vector<VersionId>& group : new_partitioning.groups) {
    std::unordered_set<RecordId> s;
    for (VersionId vid : group) {
      auto it = version_rids_.find(vid);
      if (it == version_rids_.end()) {
        return Status::InvalidArgument("migration target references unknown version " +
                                       std::to_string(vid));
      }
      s.insert(it->second.begin(), it->second.end());
    }
    new_sets.push_back(std::move(s));
  }

  if (!intelligent) {
    // Naive: drop everything and rebuild from scratch.
    std::map<VersionId, std::vector<RecordId>> rids = std::move(version_rids_);
    ORPHEUS_RETURN_NOT_OK(Build(new_partitioning, std::move(rids)));
    stats.partitions_rebuilt = static_cast<int>(parts_.size());
    for (const Phys& phys : parts_) {
      stats.rows_inserted += static_cast<int64_t>(phys.records.size());
    }
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
  std::vector<std::unordered_set<VersionId>> old_version_sets(n_old);
  for (size_t j = 0; j < n_old; ++j) {
    old_version_sets[j].insert(parts_[j].versions.begin(),
                               parts_[j].versions.end());
  }
  struct Pair {
    int64_t score;  // record-weighted common versions
    size_t ni;
    size_t oj;
  };
  std::vector<Pair> pairs;
  pairs.reserve(n_new * n_old);
  for (size_t i = 0; i < n_new; ++i) {
    for (size_t j = 0; j < n_old; ++j) {
      int64_t score = 0;
      for (VersionId vid : new_partitioning.groups[i]) {
        if (old_version_sets[j].count(vid) > 0) {
          score += static_cast<int64_t>(version_rids_.at(vid).size());
        }
      }
      if (score > 0) pairs.push_back({score, i, j});
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

  std::vector<Phys> new_parts;
  std::map<VersionId, size_t> new_vid_to_part;
  for (size_t i = 0; i < n_new; ++i) {
    const std::vector<VersionId>& group = new_partitioning.groups[i];
    if (match_of_new[i] < 0) {
      // Build from scratch.
      ORPHEUS_ASSIGN_OR_RETURN(Phys phys, CreatePhys());
      std::vector<RecordId> sorted(new_sets[i].begin(), new_sets[i].end());
      std::sort(sorted.begin(), sorted.end());
      ORPHEUS_RETURN_NOT_OK(InsertRecords(&phys, sorted));
      stats.rows_inserted += static_cast<int64_t>(sorted.size());
      for (VersionId vid : group) {
        ORPHEUS_RETURN_NOT_OK(AppendRlistRow(&phys, vid, version_rids_.at(vid)));
        new_vid_to_part[vid] = new_parts.size();
      }
      ++stats.partitions_rebuilt;
      new_parts.push_back(std::move(phys));
      continue;
    }
    // Transform the matched old partition in place.
    Phys phys = std::move(parts_[static_cast<size_t>(match_of_new[i])]);
    const std::unordered_set<RecordId>& target = new_sets[i];
    // Deletes: rows in the old partition not needed anymore.
    std::vector<RecordId> to_delete;
    for (RecordId rid : phys.records) {
      if (target.count(rid) == 0) to_delete.push_back(rid);
    }
    // §4.3: if transforming costs more than building |R'i| rows from
    // scratch, rebuild instead.
    int64_t insert_estimate = 0;
    for (RecordId rid : target) {
      if (phys.records.count(rid) == 0) ++insert_estimate;
    }
    if (static_cast<int64_t>(to_delete.size()) + insert_estimate >
        static_cast<int64_t>(target.size())) {
      ORPHEUS_RETURN_NOT_OK(db_->DropTable(phys.data_table, true));
      ORPHEUS_RETURN_NOT_OK(db_->DropTable(phys.rlist_table, true));
      ORPHEUS_ASSIGN_OR_RETURN(Phys fresh, CreatePhys());
      std::vector<RecordId> sorted(target.begin(), target.end());
      std::sort(sorted.begin(), sorted.end());
      ORPHEUS_RETURN_NOT_OK(InsertRecords(&fresh, sorted));
      stats.rows_inserted += static_cast<int64_t>(sorted.size());
      for (VersionId vid : group) {
        ORPHEUS_RETURN_NOT_OK(AppendRlistRow(&fresh, vid, version_rids_.at(vid)));
        new_vid_to_part[vid] = new_parts.size();
      }
      ++stats.partitions_rebuilt;
      new_parts.push_back(std::move(fresh));
      continue;
    }
    if (!to_delete.empty()) {
      ORPHEUS_ASSIGN_OR_RETURN(rel::Table * data, db_->GetTable(phys.data_table));
      std::unordered_set<RecordId> drop(to_delete.begin(), to_delete.end());
      int rid_col = data->schema().FindColumn("rid");
      const std::vector<int64_t>& rids_col = data->data().column(rid_col).ints();
      std::vector<bool> keep(rids_col.size());
      for (size_t r = 0; r < rids_col.size(); ++r) {
        keep[r] = drop.count(rids_col[r]) == 0;
      }
      data->mutable_chunk().FilterRows(keep);
      for (RecordId rid : to_delete) phys.records.erase(rid);
      stats.rows_deleted += static_cast<int64_t>(to_delete.size());
    }
    // Inserts: rows required but missing.
    std::vector<RecordId> to_insert;
    for (RecordId rid : target) {
      if (phys.records.count(rid) == 0) to_insert.push_back(rid);
    }
    std::sort(to_insert.begin(), to_insert.end());
    ORPHEUS_RETURN_NOT_OK(InsertRecords(&phys, to_insert));
    stats.rows_inserted += static_cast<int64_t>(to_insert.size());
    // Replace the versioning rows.
    {
      ORPHEUS_ASSIGN_OR_RETURN(rel::Table * rlist, db_->GetTable(phys.rlist_table));
      rlist->mutable_chunk().Clear();
      phys.versions.clear();
      for (VersionId vid : group) {
        ORPHEUS_RETURN_NOT_OK(AppendRlistRow(&phys, vid, version_rids_.at(vid)));
        new_vid_to_part[vid] = new_parts.size();
      }
    }
    ++stats.partitions_modified;
    new_parts.push_back(std::move(phys));
  }

  // Drop old partitions that were not reused.
  for (size_t j = 0; j < n_old; ++j) {
    if (old_used[j] || parts_[j].data_table.empty()) continue;
    ORPHEUS_RETURN_NOT_OK(db_->DropTable(parts_[j].data_table, true));
    ORPHEUS_RETURN_NOT_OK(db_->DropTable(parts_[j].rlist_table, true));
  }
  parts_ = std::move(new_parts);
  vid_to_part_ = std::move(new_vid_to_part);
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

PartitionStore::PersistedState PartitionStore::ExportState() const {
  PersistedState state;
  state.source_data_table = source_data_table_;
  state.next_phys_id = next_phys_id_;
  state.parts.reserve(parts_.size());
  for (const Phys& phys : parts_) {
    state.parts.push_back({phys.data_table, phys.rlist_table});
  }
  return state;
}

Result<std::unique_ptr<PartitionStore>> PartitionStore::Restore(
    rel::Database* db, std::string cvd_name, const PersistedState& state) {
  auto store = std::unique_ptr<PartitionStore>(
      new PartitionStore(db, std::move(cvd_name), state.source_data_table));
  store->next_phys_id_ = state.next_phys_id;
  for (const PersistedState::Part& part : state.parts) {
    Phys phys;
    phys.data_table = part.data_table;
    phys.rlist_table = part.rlist_table;
    ORPHEUS_ASSIGN_OR_RETURN(rel::Table * data, db->GetTable(part.data_table));
    int rid_col = data->schema().FindColumn("rid");
    if (rid_col < 0) {
      return Status::Internal("partition data table lacks rid column: " +
                              part.data_table);
    }
    const std::vector<int64_t>& rids = data->data().column(rid_col).ints();
    phys.records.insert(rids.begin(), rids.end());
    ORPHEUS_ASSIGN_OR_RETURN(rel::Table * rlist, db->GetTable(part.rlist_table));
    const rel::Chunk& rows = rlist->data();
    const std::vector<int64_t>& vids = rows.column(0).ints();
    const std::vector<rel::IntArray>& lists = rows.column(1).arrays();
    size_t k = store->parts_.size();
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      phys.versions.push_back(vids[r]);
      store->vid_to_part_[vids[r]] = k;
      store->version_rids_[vids[r]] =
          std::vector<RecordId>(lists[r].begin(), lists[r].end());
    }
    store->parts_.push_back(std::move(phys));
  }
  return store;
}

std::vector<std::vector<VersionId>> PartitionStore::VersionGroups() const {
  std::vector<std::vector<VersionId>> groups;
  groups.reserve(parts_.size());
  for (const Phys& phys : parts_) groups.push_back(phys.versions);
  return groups;
}

int64_t PartitionStore::StorageRecords() const {
  int64_t total = 0;
  for (const Phys& phys : parts_) {
    total += static_cast<int64_t>(phys.records.size());
  }
  return total;
}

double PartitionStore::AvgCheckoutCost() const {
  if (vid_to_part_.empty()) return 0.0;
  int64_t weighted = 0;
  for (const Phys& phys : parts_) {
    weighted += static_cast<int64_t>(phys.versions.size()) *
                static_cast<int64_t>(phys.records.size());
  }
  return static_cast<double>(weighted) /
         static_cast<double>(vid_to_part_.size());
}

Status PartitionStore::DropAll() {
  for (const Phys& phys : parts_) {
    if (phys.data_table.empty()) continue;
    ORPHEUS_RETURN_NOT_OK(db_->DropTable(phys.data_table, true));
    ORPHEUS_RETURN_NOT_OK(db_->DropTable(phys.rlist_table, true));
  }
  parts_.clear();
  vid_to_part_.clear();
  version_rids_.clear();
  return Status::OK();
}

}  // namespace orpheus::part
