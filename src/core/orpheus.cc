#include "core/orpheus.h"

#include "core/data_model.h"
#include "storage/storage_manager.h"

namespace orpheus::core {

namespace {

// The CVD's split-by-rlist model: versioned SQL and partitions need it.
Result<SplitByRlistModel*> RlistModel(OrpheusDB* db, const std::string& cvd_name) {
  ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, db->GetCvd(cvd_name));
  auto* model = dynamic_cast<SplitByRlistModel*>(cvd->model());
  if (model == nullptr) {
    return Status::NotSupported(
        "versioned SQL and partitions require the split-by-rlist data model "
        "(CVD " + cvd_name + " uses " + DataModelKindName(cvd->model()->kind()) +
        ")");
  }
  return model;
}

}  // namespace

OrpheusDB::OrpheusDB() {
  users_.insert("default");
  current_user_ = "default";
}

OrpheusDB::~OrpheusDB() = default;

Status OrpheusDB::CreateUser(const std::string& name) {
  if (!users_.insert(name).second) {
    return Status::AlreadyExists("user already exists: " + name);
  }
  if (storage_ != nullptr) {
    ORPHEUS_RETURN_NOT_OK(storage_->LogCreateUser(name));
  }
  return Status::OK();
}

Status OrpheusDB::Login(const std::string& name) {
  if (users_.count(name) == 0) {
    return Status::NotFound("no such user: " + name);
  }
  current_user_ = name;
  if (storage_ != nullptr) {
    ORPHEUS_RETURN_NOT_OK(storage_->LogLogin(name));
  }
  return Status::OK();
}

Result<Cvd*> OrpheusDB::InitCvd(const std::string& name, const rel::Chunk& rows,
                                CvdOptions options, const std::string& message) {
  if (cvds_.count(name) > 0) {
    return Status::AlreadyExists("CVD already exists: " + name);
  }
  ORPHEUS_ASSIGN_OR_RETURN(auto cvd,
                           Cvd::Create(&db_, name, rows.schema(), options));
  ORPHEUS_ASSIGN_OR_RETURN(VersionId v1, cvd->InitVersion(rows, message));
  (void)v1;
  Cvd* raw = cvd.get();
  cvds_[name] = std::move(cvd);
  if (storage_ != nullptr) {
    ORPHEUS_RETURN_NOT_OK(storage_->LogInitCvd(name, options, message, rows));
  }
  return raw;
}

Result<Cvd*> OrpheusDB::GetCvd(const std::string& name) {
  auto it = cvds_.find(name);
  if (it == cvds_.end()) return Status::NotFound("no such CVD: " + name);
  return it->second.get();
}

std::vector<std::string> OrpheusDB::ListCvds() const {
  std::vector<std::string> names;
  names.reserve(cvds_.size());
  for (const auto& [name, cvd] : cvds_) names.push_back(name);
  return names;
}

Status OrpheusDB::DropCvd(const std::string& name) {
  auto it = cvds_.find(name);
  if (it == cvds_.end()) return Status::NotFound("no such CVD: " + name);
  // Partition tables go with their store; then everything else with
  // this CVD's prefix.
  DetachPartitionStore(name);
  for (const std::string& table : db_.ListTables()) {
    if (table.rfind(name + "_", 0) == 0) {
      ORPHEUS_RETURN_NOT_OK(db_.DropTable(table));
    }
  }
  cvds_.erase(it);
  if (storage_ != nullptr) {
    ORPHEUS_RETURN_NOT_OK(storage_->LogDropCvd(name));
  }
  return Status::OK();
}

Status OrpheusDB::Checkout(const std::string& cvd_name,
                           const std::vector<VersionId>& vids,
                           const std::string& table_name, uint64_t session) {
  ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, GetCvd(cvd_name));
  return cvd->Checkout(vids, table_name, session);
}

Result<VersionId> OrpheusDB::Commit(const std::string& cvd_name,
                                    const std::string& table_name,
                                    const std::string& message) {
  ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, GetCvd(cvd_name));
  // Resolve, apply, then log the resolved commit: the rids and the new
  // records are what replay applies, so it never resolves again.
  ORPHEUS_ASSIGN_OR_RETURN(ResolvedCommit commit, cvd->ResolveCommit(table_name));
  ORPHEUS_ASSIGN_OR_RETURN(VersionId vid,
                           cvd->ApplyCommit(table_name, message, commit));
  if (storage_ != nullptr) {
    ORPHEUS_RETURN_NOT_OK(
        storage_->LogCommit(cvd_name, table_name, message, commit));
  }
  return vid;
}

Status OrpheusDB::DiscardStaged(const std::string& cvd_name,
                                const std::string& table_name) {
  ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, GetCvd(cvd_name));
  return cvd->DiscardStaged(table_name);
}

Result<std::pair<std::string, std::string>> OrpheusDB::ResolveTables(
    const std::string& cvd_name, VersionId vid) {
  ORPHEUS_ASSIGN_OR_RETURN(SplitByRlistModel * model, RlistModel(this, cvd_name));
  return model->TablesFor(vid);
}

Status OrpheusDB::Repartition(const std::string& cvd_name,
                              const part::Partitioning& partitioning) {
  ORPHEUS_ASSIGN_OR_RETURN(SplitByRlistModel * model, RlistModel(this, cvd_name));
  ORPHEUS_ASSIGN_OR_RETURN(auto version_rids, model->AllVersionRecords());
  ORPHEUS_RETURN_NOT_OK(model->SetPartitionStore(nullptr));
  auto store =
      std::make_unique<part::PartitionStore>(&db_, cvd_name, model->DataTable());
  ORPHEUS_RETURN_NOT_OK(store->Build(partitioning, version_rids));
  return AttachPartitionStore(cvd_name, std::move(store));
}

Status OrpheusDB::AttachPartitionStore(
    const std::string& cvd_name, std::unique_ptr<part::PartitionStore> store) {
  ORPHEUS_ASSIGN_OR_RETURN(SplitByRlistModel * model, RlistModel(this, cvd_name));
  ORPHEUS_RETURN_NOT_OK(model->SetPartitionStore(std::move(store)));
  if (storage_ != nullptr) {
    ORPHEUS_RETURN_NOT_OK(storage_->LogRepartition(
        cvd_name, model->partition_store()->VersionGroups()));
  }
  return Status::OK();
}

part::PartitionStore* OrpheusDB::partition_store(const std::string& cvd_name) {
  Result<SplitByRlistModel*> model = RlistModel(this, cvd_name);
  return model.ok() ? model.value()->partition_store() : nullptr;
}

void OrpheusDB::DetachPartitionStore(const std::string& cvd_name) {
  Result<SplitByRlistModel*> model = RlistModel(this, cvd_name);
  if (model.ok()) (void)model.value()->SetPartitionStore(nullptr);  // drops its tables
}

Result<rel::Chunk> OrpheusDB::Run(const std::string& sql) {
  TableResolver resolver = [this](const std::string& cvd_name, VersionId vid) {
    return ResolveTables(cvd_name, vid);
  };
  ORPHEUS_ASSIGN_OR_RETURN(std::string translated,
                           TranslateVersionedSql(sql, resolver));
  return db_.Execute(translated);
}

Status OrpheusDB::Open(const std::string& dir) {
  if (storage_ != nullptr) {
    return Status::InvalidArgument("durable storage already open at " +
                                   storage_->dir());
  }
  // Pre-existing state would never reach the log (only verbs issued
  // while durable are appended), so anything beyond the construction
  // defaults — including extra users — must be rejected, or later
  // logged verbs could reference state that replay cannot rebuild.
  if (!cvds_.empty() || !db_.ListTables().empty() ||
      users_ != std::set<std::string>{"default"} ||
      current_user_ != "default") {
    return Status::InvalidArgument(
        "Open requires a fresh engine (CVDs, tables, or users already exist)");
  }
  ORPHEUS_ASSIGN_OR_RETURN(storage_, storage::StorageManager::Open(dir, this));
  return Status::OK();
}

Status OrpheusDB::Checkpoint() {
  if (storage_ == nullptr) {
    return Status::InvalidArgument("no durable storage open (use Open first)");
  }
  return storage_->Checkpoint();
}

Status OrpheusDB::SaveSnapshot(const std::string& dir) {
  return storage::StorageManager::ExportTo(this, dir);
}

std::string OrpheusDB::storage_dir() const {
  return storage_ == nullptr ? std::string() : storage_->dir();
}

}  // namespace orpheus::core
