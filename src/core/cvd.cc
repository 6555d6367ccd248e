#include "core/cvd.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/flat_join_table.h"
#include "common/str_util.h"

namespace orpheus::core {

namespace {

// Widening lattice for single-pool schema evolution: INT -> DOUBLE ->
// TEXT (§3.3, after Jain et al.).
int TypeRank(rel::DataType type) {
  switch (type) {
    case rel::DataType::kBool:
    case rel::DataType::kInt64:
      return 0;
    case rel::DataType::kDouble:
      return 1;
    default:
      return 2;
  }
}

rel::DataType WidenType(rel::DataType a, rel::DataType b) {
  return TypeRank(a) >= TypeRank(b) ? a : b;
}

std::string EscapeSqlString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\'') out += "''";
    else out.push_back(c);
  }
  return out;
}

// True if no two of the n rows of `cols` are equal.
bool AllDistinct(const RecordColumns& cols, size_t n) {
  std::vector<int64_t> keys;
  AppendRecordKeys(cols, n, &keys);
  return FirstOccurrences({cols}, keys)[0].size() == n;
}

std::string IntArrayLiteral(const std::vector<int64_t>& values) {
  std::vector<std::string> parts;
  parts.reserve(values.size());
  for (int64_t v : values) parts.push_back(std::to_string(v));
  return "ARRAY[" + Join(parts, ", ") + "]";
}

}  // namespace

Cvd::Cvd(rel::Database* db, std::string name, rel::Schema data_schema,
         CvdOptions options)
    : db_(db),
      name_(std::move(name)),
      primary_key_(std::move(options.primary_key)),
      model_(MakeDataModel(options.model, db, name_, std::move(data_schema))) {}

Result<std::unique_ptr<Cvd>> Cvd::Create(rel::Database* db,
                                         const std::string& name,
                                         rel::Schema data_schema,
                                         CvdOptions options) {
  // Validate the primary key against the schema up front.
  for (const std::string& pk : options.primary_key) {
    if (data_schema.FindColumn(pk) < 0) {
      return Status::InvalidArgument("primary key attribute not in schema: " + pk);
    }
  }
  if (data_schema.num_columns() == 0) {
    return Status::InvalidArgument("a CVD needs at least one data attribute");
  }
  if (data_schema.FindColumn("rid") >= 0) {
    return Status::InvalidArgument("'rid' is reserved for internal record ids");
  }
  std::unique_ptr<Cvd> cvd(new Cvd(db, name, data_schema, std::move(options)));
  ORPHEUS_RETURN_NOT_OK(cvd->model_->Init());

  // Metadata table (Figure 4a).
  rel::Schema meta;
  meta.AddColumn("vid", rel::DataType::kInt64);
  meta.AddColumn("parents", rel::DataType::kIntArray);
  meta.AddColumn("checkout_t", rel::DataType::kInt64);
  meta.AddColumn("commit_t", rel::DataType::kInt64);
  meta.AddColumn("msg", rel::DataType::kString);
  meta.AddColumn("attributes", rel::DataType::kIntArray);
  ORPHEUS_RETURN_NOT_OK(db->CreateTable(cvd->MetadataTableName(), meta, {"vid"}));

  // Attribute table (Figure 5b).
  rel::Schema attr;
  attr.AddColumn("attr_id", rel::DataType::kInt64);
  attr.AddColumn("attr_name", rel::DataType::kString);
  attr.AddColumn("data_type", rel::DataType::kString);
  ORPHEUS_RETURN_NOT_OK(
      db->CreateTable(cvd->AttributeTableName(), attr, {"attr_id"}));

  for (const rel::ColumnDef& def : data_schema.columns()) {
    cvd->AddAttributeEntry(def.name, def.type);
  }
  return cvd;
}

int64_t Cvd::AddAttributeEntry(const std::string& name, rel::DataType type) {
  int64_t id = static_cast<int64_t>(attributes_.size()) + 1;
  attributes_.push_back({id, name, type});
  live_attrs_[name] = id;
  // Mirror into the attribute table (best-effort bookkeeping).
  (void)db_->Execute("INSERT INTO " + AttributeTableName() + " VALUES (" +
                     std::to_string(id) + ", '" + EscapeSqlString(name) + "', '" +
                     rel::DataTypeName(type) + "')");
  return id;
}

Status Cvd::AppendMetadataRow(VersionId vid, const std::vector<VersionId>& parents,
                              int64_t checkout_time, int64_t commit_time,
                              const std::string& message,
                              const std::vector<int64_t>& attr_ids) {
  ORPHEUS_ASSIGN_OR_RETURN(
      rel::Chunk unused,
      db_->Execute("INSERT INTO " + MetadataTableName() + " VALUES (" +
                   std::to_string(vid) + ", " + IntArrayLiteral(parents) + ", " +
                   std::to_string(checkout_time) + ", " +
                   std::to_string(commit_time) + ", '" + EscapeSqlString(message) +
                   "', " + IntArrayLiteral(attr_ids) + ")"));
  (void)unused;
  return Status::OK();
}

Result<std::vector<int64_t>> Cvd::VersionAttributes(VersionId vid) const {
  auto it = version_attrs_.find(vid);
  if (it == version_attrs_.end()) {
    return Status::NotFound("version not found: " + std::to_string(vid));
  }
  return it->second;
}

Result<VersionId> Cvd::InitVersion(const rel::Chunk& rows,
                                   const std::string& message) {
  if (next_vid_ != 1) {
    return Status::InvalidArgument("CVD already initialized: " + name_);
  }
  const rel::Schema& data_schema = model_->data_schema();
  if (!rows.schema().Equals(data_schema)) {
    return Status::InvalidArgument("init rows schema " + rows.schema().ToString() +
                                   " does not match CVD schema " +
                                   data_schema.ToString());
  }
  // Primary-key uniqueness within the version.
  if (!primary_key_.empty()) {
    std::vector<int> pk_cols;
    for (const std::string& pk : primary_key_) {
      pk_cols.push_back(rows.schema().FindColumn(pk));
    }
    if (!AllDistinct(ColumnsOf(rows, pk_cols), rows.num_rows())) {
      return Status::ConstraintViolation(
          "duplicate primary key in initial version");
    }
  }

  VersionId vid = next_vid_++;
  std::vector<RecordId> rids(rows.num_rows());
  std::iota(rids.begin(), rids.end(), next_rid_);
  next_rid_ += static_cast<RecordId>(rows.num_rows());

  // Stage rid + data as the model's record schema.
  rel::Schema record_schema;
  record_schema.AddColumn("rid", rel::DataType::kInt64);
  for (const rel::ColumnDef& def : data_schema.columns()) {
    record_schema.AddColumn(def.name, def.type);
  }
  rel::Chunk with_rid(record_schema);
  for (RecordId rid : rids) with_rid.mutable_column(0).AppendInt(rid);
  std::vector<uint32_t> all(rows.num_rows());
  std::iota(all.begin(), all.end(), 0);
  for (int c = 0; c < rows.num_columns(); ++c) {
    with_rid.mutable_column(c + 1).Gather(rows.column(c), all);
  }

  ORPHEUS_RETURN_NOT_OK(model_->AddVersion(vid, with_rid, rids, with_rid,
                                           /*primary_parent=*/-1));

  ORPHEUS_RETURN_NOT_OK(graph_.AddVersion(vid, {}, {}, static_cast<int64_t>(rids.size())));
  std::vector<int64_t> attr_ids;
  for (const rel::ColumnDef& def : data_schema.columns()) {
    attr_ids.push_back(live_attrs_.at(def.name));
  }
  version_attrs_[vid] = attr_ids;
  int64_t now = ++logical_clock_;
  ORPHEUS_RETURN_NOT_OK(AppendMetadataRow(vid, {}, now, now, message, attr_ids));
  return vid;
}

Status Cvd::CheckoutSingle(VersionId vid, const std::string& table_name,
                           std::vector<rel::Chunk>* parent_rows) {
  ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk rows, model_->VersionRows(vid));
  if (model_->ServesFromOwnTables(vid)) parent_rows->push_back(rows);
  const std::vector<int64_t>& attr_ids = version_attrs_.at(vid);
  if (attr_ids.size() != static_cast<size_t>(model_->data_schema().num_columns())) {
    // Project down to the attributes this version actually has.
    rel::Schema schema;
    schema.AddColumn("rid", rel::DataType::kInt64);
    std::vector<int> cols = {0};
    for (int64_t attr_id : attr_ids) {
      const std::string& name = attributes_[static_cast<size_t>(attr_id - 1)].name;
      ORPHEUS_ASSIGN_OR_RETURN(int col, rows.schema().Resolve(name));
      schema.AddColumn(name, rows.column(col).type());
      cols.push_back(col);
    }
    rel::Chunk projected(std::move(schema));
    for (int c = 0; c < projected.num_columns(); ++c) {
      projected.mutable_column(c) =
          std::move(rows.mutable_column(cols[static_cast<size_t>(c)]));
    }
    rows = std::move(projected);
  }
  return db_->AdoptTable(table_name, std::move(rows));
}

Status Cvd::Checkout(const std::vector<VersionId>& vids,
                     const std::string& table_name, uint64_t session) {
  if (vids.empty()) return Status::InvalidArgument("no versions given");
  if (db_->HasTable(table_name)) {
    return Status::AlreadyExists("table already exists: " + table_name);
  }
  for (VersionId vid : vids) {
    if (!graph_.Contains(vid)) {
      return Status::NotFound("version not found: " + std::to_string(vid));
    }
  }

  StagedTableInfo info;
  info.table_name = table_name;
  info.parents = vids;
  if (vids.size() == 1) {
    ORPHEUS_RETURN_NOT_OK(CheckoutSingle(vids[0], table_name, &info.parent_rows));
  } else {
    // Merging checkout: precedence order with primary-key conflict
    // resolution (§2.2) — the first row holding a key wins. Without a
    // primary key, rid identity dedupes.
    std::vector<rel::Chunk> versions;
    for (VersionId vid : vids) {
      ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk rows, model_->VersionRows(vid));
      versions.push_back(std::move(rows));
    }
    std::vector<int> key_cols;
    for (const std::string& pk : primary_key_) {
      key_cols.push_back(versions[0].schema().FindColumn(pk));
    }
    if (key_cols.empty()) key_cols.push_back(versions[0].schema().FindColumn("rid"));
    std::vector<RecordColumns> parts;
    std::vector<int64_t> keys;
    for (const rel::Chunk& rows : versions) {
      parts.push_back(ColumnsOf(rows, key_cols));
      AppendRecordKeys(parts.back(), rows.num_rows(), &keys);
    }
    std::vector<std::vector<uint32_t>> keep =
        FirstOccurrences(std::move(parts), keys);
    rel::Chunk merged(versions[0].schema());
    for (size_t i = 0; i < versions.size(); ++i) {
      merged.GatherFrom(versions[i], keep[i]);
    }
    ORPHEUS_RETURN_NOT_OK(db_->AdoptTable(table_name, std::move(merged)));
    info.parent_rows = std::move(versions);
  }

  info.checkout_time = logical_clock_;
  info.session = session;
  staged_[table_name] = std::move(info);
  return Status::OK();
}

Result<std::vector<int64_t>> Cvd::ReconcileSchema(const rel::Schema& staged_schema) {
  std::vector<int64_t> attr_ids;
  for (const rel::ColumnDef& def : staged_schema.columns()) {
    auto it = live_attrs_.find(def.name);
    if (it == live_attrs_.end()) {
      // New attribute: extend the CVD, NULL-backfilling old records.
      ORPHEUS_RETURN_NOT_OK(model_->AddDataColumn(def.name, def.type));
      attr_ids.push_back(AddAttributeEntry(def.name, def.type));
      continue;
    }
    const AttributeEntry& live = attributes_[static_cast<size_t>(it->second - 1)];
    rel::DataType widened = WidenType(live.type, def.type);
    if (widened != live.type) {
      // Type change: widen the pool column, register a new attribute
      // entry (single-pool method).
      ORPHEUS_RETURN_NOT_OK(model_->WidenDataColumn(def.name, widened));
      attr_ids.push_back(AddAttributeEntry(def.name, widened));
    } else {
      attr_ids.push_back(it->second);
    }
  }
  return attr_ids;
}

Result<std::vector<rel::Chunk>> Cvd::ParentRows(
    const std::vector<VersionId>& parents, std::vector<rel::Chunk> kept) {
  const rel::Schema record_schema = model_->RecordSchema();
  if (kept.size() == parents.size() &&
      std::all_of(kept.begin(), kept.end(), [&](const rel::Chunk& rows) {
        return rows.schema().Equals(record_schema);
      })) {
    return kept;
  }
  std::vector<rel::Chunk> out;
  out.reserve(parents.size());
  for (VersionId parent : parents) {
    ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk rows, model_->VersionRows(parent));
    if (!rows.schema().Equals(record_schema)) {
      return Status::Internal("version " + std::to_string(parent) + " rows " +
                              rows.schema().ToString() +
                              " do not match the record schema " +
                              record_schema.ToString());
    }
    out.push_back(std::move(rows));
  }
  return out;
}

Result<VersionId> Cvd::Commit(const std::string& table_name,
                              const std::string& message) {
  ORPHEUS_ASSIGN_OR_RETURN(ResolvedCommit commit, ResolveCommit(table_name));
  return ApplyCommit(table_name, message, commit);
}

Result<ResolvedCommit> Cvd::ResolveCommit(const std::string& table_name) {
  auto staged_it = staged_.find(table_name);
  if (staged_it == staged_.end()) {
    return Status::NotFound("table was not checked out from CVD " + name_ + ": " +
                            table_name);
  }
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * staged_table, db_->GetTable(table_name));
  const rel::Chunk& staged_rows = staged_table->data();
  if (staged_rows.schema().FindColumn("rid") < 0) {
    return Status::Internal("staged table lost its rid column");
  }

  // --- Schema reconciliation (may ALTER the pool tables) -------------
  ResolvedCommit out;
  out.parents = staged_it->second.parents;
  out.checkout_time = staged_it->second.checkout_time;
  out.commit_time = logical_clock_ + 1;
  for (const rel::ColumnDef& def : staged_rows.schema().columns()) {
    if (def.name != "rid") out.staged_schema.AddColumn(def.name, def.type);
  }
  ORPHEUS_ASSIGN_OR_RETURN(out.attr_ids, ReconcileSchema(out.staged_schema));

  // --- Staged columns aligned to the (possibly evolved) attributes ----
  // A staged column of the attribute's type is compared in place; one
  // of a narrower type is widened into a copy (e.g. an INT column
  // committed into a DOUBLE pool attribute); a missing one reads NULL.
  const rel::Schema& data_schema = model_->data_schema();
  const size_t n = staged_rows.num_rows();
  std::vector<rel::Column> converted;  // reserved: staged_cols points in
  converted.reserve(static_cast<size_t>(data_schema.num_columns()));
  RecordColumns staged_cols;
  for (const rel::ColumnDef& def : data_schema.columns()) {
    int src = staged_rows.schema().FindColumn(def.name);
    if (src >= 0 && staged_rows.column(src).type() == def.type) {
      staged_cols.push_back(&staged_rows.column(src));
      continue;
    }
    if (src < 0) {
      converted.emplace_back(def.type);
      converted.back().AppendNulls(n);
    } else {
      std::vector<uint32_t> all(n);
      std::iota(all.begin(), all.end(), 0);
      converted.emplace_back(staged_rows.column(src).type());
      converted.back().Gather(staged_rows.column(src), all);
      ORPHEUS_RETURN_NOT_OK(converted.back().ConvertTo(def.type));
    }
    staged_cols.push_back(&converted.back());
  }

  // --- Primary-key check within the committed version ----------------
  if (!primary_key_.empty()) {
    RecordColumns pk_cols;
    for (const std::string& pk : primary_key_) {
      pk_cols.push_back(staged_cols[static_cast<size_t>(data_schema.FindColumn(pk))]);
    }
    if (!AllDistinct(pk_cols, n)) {
      return Status::ConstraintViolation(
          "duplicate primary key in committed table " + table_name);
    }
  }

  // --- Record resolution (the no-cross-version-diff rule) -----------
  // The parents' records, concatenated in parent order, keyed by
  // content; each staged row takes the rid of the first equal one.
  ORPHEUS_ASSIGN_OR_RETURN(
      out.parent_rows,
      ParentRows(out.parents, std::exchange(staged_it->second.parent_rows, {})));
  std::vector<int> data_cols(static_cast<size_t>(data_schema.num_columns()));
  std::iota(data_cols.begin(), data_cols.end(), 1);
  std::vector<RecordColumns> parent_cols;
  std::vector<int64_t> parent_keys;
  for (const rel::Chunk& rows : out.parent_rows) {
    parent_cols.push_back(ColumnsOf(rows, data_cols));
    AppendRecordKeys(parent_cols.back(), rows.num_rows(), &parent_keys);
  }
  RecordIndex parents(std::move(parent_cols), parent_keys);
  std::vector<int64_t> keys;
  AppendRecordKeys(staged_cols, n, &keys);

  const std::vector<uint32_t> matches = parents.FindFirstBatch(keys, staged_cols);
  out.rids.resize(n);
  std::vector<uint32_t> new_rows;
  RecordId next_rid = next_rid_;
  for (size_t r = 0; r < n; ++r) {
    const uint32_t m = matches[r];
    if (m == RecordIndex::kNone) {
      out.rids[r] = next_rid++;
      new_rows.push_back(static_cast<uint32_t>(r));
    } else {
      auto [parent, row] = parents.Locate(m);
      out.rids[r] = out.parent_rows[parent].column(0).ints()[row];
    }
  }

  out.new_records = rel::Chunk(model_->RecordSchema());
  rel::Column& new_rids = out.new_records.mutable_column(0);
  for (uint32_t r : new_rows) new_rids.AppendInt(out.rids[r]);
  for (size_t c = 0; c < staged_cols.size(); ++c) {
    out.new_records.mutable_column(static_cast<int>(c) + 1)
        .Gather(*staged_cols[c], new_rows);
  }
  return out;
}

Result<VersionId> Cvd::ReplayCommit(const std::string& table_name,
                                    const std::string& message,
                                    ResolvedCommit commit) {
  if (commit.staged_schema.FindColumn("rid") >= 0) {
    return Status::Internal("commit schema names the reserved rid column");
  }
  if (commit.parents.empty()) {
    return Status::Internal("commit names no parent version");
  }
  for (VersionId parent : commit.parents) {
    if (!graph_.Contains(parent)) {
      return Status::Internal("commit parent " + std::to_string(parent) +
                              " is not a version of " + name_);
    }
  }
  ORPHEUS_ASSIGN_OR_RETURN(commit.attr_ids, ReconcileSchema(commit.staged_schema));
  ORPHEUS_ASSIGN_OR_RETURN(commit.parent_rows, ParentRows(commit.parents, {}));
  // A checkpoint may have restored a staging entry whose table raw SQL
  // had dropped; the live run then checked the name out again. Apply
  // consumes only a staged table that is there.
  auto staged_it = staged_.find(table_name);
  if (staged_it != staged_.end() && !db_->HasTable(table_name)) {
    staged_.erase(staged_it);
  }
  return ApplyCommit(table_name, message, commit);
}

Result<VersionId> Cvd::ApplyCommit(const std::string& table_name,
                                   const std::string& message,
                                   const ResolvedCommit& commit) {
  const std::vector<VersionId>& parents = commit.parents;
  const rel::Schema record_schema = model_->RecordSchema();
  if (commit.commit_time <= logical_clock_ ||
      commit.checkout_time >= commit.commit_time) {
    return Status::Internal(
        "commit time " + std::to_string(commit.commit_time) +
        " does not follow the logical clock " + std::to_string(logical_clock_) +
        " and the checkout time " + std::to_string(commit.checkout_time));
  }
  if (!commit.new_records.schema().Equals(record_schema)) {
    return Status::Internal("new records " + commit.new_records.schema().ToString() +
                            " do not match the record schema " +
                            record_schema.ToString());
  }
  if (commit.parent_rows.size() != parents.size()) {
    return Status::Internal("commit carries rows of " +
                            std::to_string(commit.parent_rows.size()) +
                            " parents, but names " +
                            std::to_string(parents.size()));
  }

  // --- Check the rids; find each committed row's source record -------
  // The parents' rids, concatenated in parent order and keyed by rid,
  // give both the source of every reused rid and the edge weights.
  std::vector<int64_t> parent_rids;
  std::vector<size_t> parent_of;     // per concatenated row
  std::vector<size_t> parent_begin;  // per parent: its first row
  for (size_t p = 0; p < parents.size(); ++p) {
    const std::vector<int64_t>& rids = commit.parent_rows[p].column(0).ints();
    parent_begin.push_back(parent_rids.size());
    parent_rids.insert(parent_rids.end(), rids.begin(), rids.end());
    parent_of.insert(parent_of.end(), rids.size(), p);
  }
  FlatJoinTable by_rid;
  by_rid.Build(parent_rids);

  struct Source {
    const rel::Chunk* rows;
    uint32_t row;
  };
  const size_t n = commit.rids.size();
  const std::vector<int64_t>& new_rids = commit.new_records.column(0).ints();
  std::vector<Source> sources(n);
  std::vector<int64_t> weights(parents.size(), 0);
  size_t next_new = 0;
  for (size_t i = 0; i < n; ++i) {
    const RecordId rid = commit.rids[i];
    if (rid >= next_rid_) {
      const RecordId expected = next_rid_ + static_cast<RecordId>(next_new);
      if (rid != expected || next_new >= new_rids.size() ||
          new_rids[next_new] != rid) {
        return Status::Internal("committed row " + std::to_string(i) +
                                " has rid " + std::to_string(rid) +
                                ", but the next new record is rid " +
                                std::to_string(expected));
      }
      sources[i] = {&commit.new_records, static_cast<uint32_t>(next_new++)};
      continue;
    }
    uint32_t m = by_rid.Find(rid);
    if (m == FlatJoinTable::kEnd) {
      return Status::Internal("committed row " + std::to_string(i) + " has rid " +
                              std::to_string(rid) +
                              ", which is neither new nor in a parent");
    }
    sources[i] = {&commit.parent_rows[parent_of[m]],
                  static_cast<uint32_t>(m - parent_begin[parent_of[m]])};
    // Each parent holding the rid counts it once; the chain lists the
    // holders in parent order.
    for (size_t last = parents.size(); m != FlatJoinTable::kEnd; m = by_rid.Next(m)) {
      if (parent_of[m] != last) ++weights[last = parent_of[m]];
    }
  }
  if (next_new != new_rids.size()) {
    return Status::Internal(std::to_string(new_rids.size()) +
                            " new records, but the committed rows use " +
                            std::to_string(next_new));
  }
  VersionId primary_parent = -1;
  if (!parents.empty()) {
    size_t best = 0;
    for (size_t p = 1; p < parents.size(); ++p) {
      if (weights[p] > weights[best]) best = p;
    }
    primary_parent = parents[best];
  }

  // --- The committed content ------------------------------------------
  // Models that read it (TPV, delta) get the version's rows rebuilt
  // from the source records, rids included — never the staged table,
  // so a live commit and its replay install the same rows. Gathered a
  // run at a time: consecutive rows from one source chunk.
  rel::Chunk content(record_schema);
  if (model_->ReadsContent()) {
    content.Reserve(n);
    std::vector<uint32_t> run;
    for (size_t begin = 0, end = 0; begin < n; begin = end) {
      run.clear();
      for (; end < n && sources[end].rows == sources[begin].rows; ++end) {
        run.push_back(sources[end].row);
      }
      content.GatherFrom(*sources[begin].rows, run);
    }
  }
  next_rid_ += static_cast<RecordId>(new_rids.size());

  // --- Persist ----------------------------------------------------------
  VersionId vid = next_vid_++;
  ORPHEUS_RETURN_NOT_OK(model_->AddVersion(vid, content, commit.rids,
                                           commit.new_records, primary_parent));
  ORPHEUS_RETURN_NOT_OK(
      graph_.AddVersion(vid, parents, weights, static_cast<int64_t>(n)));
  version_attrs_[vid] = commit.attr_ids;
  logical_clock_ = commit.commit_time;
  ORPHEUS_RETURN_NOT_OK(AppendMetadataRow(vid, parents, commit.checkout_time,
                                          commit.commit_time, message,
                                          commit.attr_ids));

  // Commit removes the table from the staging area (§2.3). Replay
  // finds it staged only where a checkpoint restored the checkout.
  auto staged_it = staged_.find(table_name);
  if (staged_it != staged_.end()) {
    ORPHEUS_RETURN_NOT_OK(db_->DropTable(table_name));
    staged_.erase(staged_it);
  }
  return vid;
}

Result<rel::Chunk> Cvd::Diff(VersionId a, VersionId b) {
  ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk rows_a, model_->VersionRows(a));
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<RecordId> rids_b, model_->VersionRecords(b));
  FlatJoinTable b_set;
  b_set.Build(rids_b);
  int rid_col = rows_a.schema().FindColumn("rid");
  std::vector<uint32_t> keep;
  for (size_t r = 0; r < rows_a.num_rows(); ++r) {
    if (b_set.Find(rows_a.column(rid_col).ints()[r]) == FlatJoinTable::kEnd) {
      keep.push_back(static_cast<uint32_t>(r));
    }
  }
  rel::Chunk out(rows_a.schema());
  out.GatherFrom(rows_a, keep);
  return out;
}

Status Cvd::DiscardStaged(const std::string& table_name) {
  auto it = staged_.find(table_name);
  if (it == staged_.end()) {
    return Status::NotFound("not a staged table: " + table_name);
  }
  ORPHEUS_RETURN_NOT_OK(db_->DropTable(table_name, /*if_exists=*/true));
  staged_.erase(it);
  return Status::OK();
}

}  // namespace orpheus::core
