#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <sstream>

#include "common/csv.h"
#include "relstore/database.h"

namespace perfbench {

namespace core = orpheus::core;
namespace obs = orpheus::obs;
namespace rel = orpheus::rel;

const char* const kOpNames[kOpKinds] = {"checkout", "commit", "vquery", "xquery"};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Request frame (u32 length + line) plus reply frame (u32 length,
// status byte, closed byte, text): the protocol of server/protocol.h.
size_t FrameBytes(const std::string& line, size_t reply_text) {
  return 4 + line.size() + 4 + 2 + reply_text;
}

}  // namespace

// --- Instance ---------------------------------------------------------

Result<std::unique_ptr<Instance>> Instance::Start(const std::string& dir,
                                                  int clients) {
  std::unique_ptr<Instance> inst(new Instance());
  inst->dir_ = dir;
  inst->api_ = std::make_unique<core::EngineApi>();
  if (!dir.empty()) ORPHEUS_RETURN_NOT_OK(inst->api_->orpheus()->Open(dir));
  orpheus::server::ServerOptions options;
  options.workers = clients + 1;
  options.idle_timeout_sec = 0;
  inst->server_ =
      std::make_unique<orpheus::server::Server>(inst->api_.get(), options);
  ORPHEUS_RETURN_NOT_OK(inst->server_->Start());
  return inst;
}

Instance::~Instance() {
  if (server_ != nullptr) server_->Stop();
}

// --- TraceHarvester ---------------------------------------------------

TraceHarvester::TraceHarvester() {
  std::vector<obs::OpTrace> recent = obs::GlobalTraceLog().Recent();
  if (!recent.empty()) last_id_ = recent.back().id;
}

void TraceHarvester::Poll() {
  std::vector<obs::OpTrace> recent = obs::GlobalTraceLog().Recent();
  std::lock_guard<std::mutex> lock(mu_);
  for (obs::OpTrace& op : recent) {
    if (op.id <= last_id_) continue;
    last_id_ = op.id;
    got_.push_back(std::move(op));
  }
}

std::vector<obs::OpTrace> TraceHarvester::Take() {
  Poll();
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(got_);
}

// --- Session ------------------------------------------------------------

Session::Session(Instance* instance, TraceHarvester* harvester)
    : instance_(instance), harvester_(harvester) {}

Status Session::Connect() {
  ORPHEUS_RETURN_NOT_OK(client_.Connect("127.0.0.1", instance_->port()));
  // "ORPHEUS/1 session <id>"
  const std::string& hello = client_.hello();
  id_ = std::strtoull(hello.substr(hello.rfind(' ') + 1).c_str(), nullptr, 10);
  return Status::OK();
}

Result<std::string> Session::Exec(const std::string& line, int kind,
                                  int64_t rows_returned, double due) {
  rel::ExecStats* st = instance_->engine()->db()->stats();
  StmtRecord rec;
  rec.kind = kind;
  rec.measured = measuring_;
  rec.rows_returned = rows_returned;
  const int64_t scanned0 = st->rows_scanned;
  const int64_t probes0 = st->index_probes;
  const int64_t pages0 = st->pages_read;
  rec.start = Now();
  Result<std::string> reply = client_.Execute(line);
  rec.end = Now();
  rec.ok = reply.ok();
  rec.latency_ms = (rec.end - (due > 0 ? due : rec.start)) * 1e3;
  rec.rows_scanned = st->rows_scanned - scanned0;
  rec.index_probes = st->index_probes - probes0;
  rec.pages_read = st->pages_read - pages0;
  rec.net_bytes =
      FrameBytes(line, reply.ok() ? reply.value().size()
                                  : reply.status().ToString().size());
  stmts.push_back(rec);
  if (kind != kUntimed) {
    last_counted_ = measuring_ && reply.ok();
    if (measuring_) {
      ++attempted;
      if (!reply.ok()) ++failed;
    }
  }
  // The ring keeps 256 ops; no session runs more than ~3 per op.
  if (harvester_ != nullptr && stmts.size() % 16 == 0) harvester_->Poll();
  return reply;
}

void Session::FailLastOp() {
  if (!last_counted_) return;
  ++failed;
  last_counted_ = false;
}

// --- Loading ------------------------------------------------------------

namespace {

std::string InsertSql(const std::string& table, const CvdModel& model,
                      const std::vector<int64_t>& rids) {
  const int attrs = model.data().spec().num_attrs;
  std::string sql = "sql INSERT INTO " + table + " (k";
  for (int a = 1; a < attrs; ++a) sql += ", a" + std::to_string(a);
  sql += ") VALUES ";
  for (size_t i = 0; i < rids.size(); ++i) {
    sql += i == 0 ? "(" : ", (";
    sql += std::to_string(model.key_of(rids[i]));
    for (int a = 1; a < attrs; ++a) {
      sql += ", " + std::to_string(orpheus::wl::Dataset::AttrValue(rids[i], a));
    }
    sql += ")";
  }
  return sql;
}

// Rows of `table` whose key is one of `rids`' keys go, through a
// one-column key table: DELETE ... WHERE k IN (SELECT k FROM keys).
// The key table lives only between a checkout and a commit, so no WAL
// record (and no checkpoint it triggers) ever sees it.
Status DeleteKeys(Session* s, const std::string& table, const CvdModel& model,
                  const std::vector<int64_t>& rids) {
  const std::string keys = table + "_keys";
  std::string values;
  for (int64_t rid : rids) {
    values += (values.empty() ? "(" : ", (") + std::to_string(model.key_of(rid)) + ")";
  }
  ORPHEUS_RETURN_NOT_OK(s->Exec("sql CREATE TABLE " + keys + " (k INT)").status());
  ORPHEUS_RETURN_NOT_OK(
      s->Exec("sql INSERT INTO " + keys + " (k) VALUES " + values).status());
  ORPHEUS_RETURN_NOT_OK(s->Exec("sql DELETE FROM " + table + " WHERE k IN (SELECT k FROM " +
                                keys + ")")
                            .status());
  return s->Exec("sql DROP TABLE " + keys).status();
}

}  // namespace

Status LoadCvd(Session* s, const CvdModel& model, const std::string& workdir) {
  const orpheus::wl::Dataset& data = model.data();
  const std::string& name = model.name();
  const std::vector<orpheus::wl::VersionSpec>& versions = data.versions();

  const std::string csv = workdir + "/" + name + "_v1.csv";
  ORPHEUS_RETURN_NOT_OK(orpheus::WriteCsvFile(csv, data.RowsFor(versions[0].rids)));
  Result<std::string> r = s->Exec("init " + name + " -f " + csv + " -pk k");
  std::remove(csv.c_str());
  ORPHEUS_RETURN_NOT_OK(r.status());

  const std::string stage = "load_" + name;
  for (size_t i = 1; i < versions.size(); ++i) {
    const orpheus::wl::VersionSpec& v = versions[i];
    std::string parents;
    for (VersionId p : v.parents) {
      parents += (parents.empty() ? "" : ",") + std::to_string(p);
    }
    ORPHEUS_RETURN_NOT_OK(
        s->Exec("checkout " + name + " -v " + parents + " -t " + stage).status());
    if (v.parents.size() == 1) {
      // A merge version is exactly its parents' merging checkout; a
      // single-parent version differs from its parent by its edits.
      const std::vector<int64_t>& prev =
          versions[static_cast<size_t>(v.parents[0] - 1)].rids;
      std::vector<int64_t> gone;
      std::vector<int64_t> added;
      std::set_difference(prev.begin(), prev.end(), v.rids.begin(), v.rids.end(),
                          std::back_inserter(gone));
      std::set_difference(v.rids.begin(), v.rids.end(), prev.begin(), prev.end(),
                          std::back_inserter(added));
      if (!gone.empty()) {
        ORPHEUS_RETURN_NOT_OK(DeleteKeys(s, stage, model, gone));
      }
      if (!added.empty()) {
        ORPHEUS_RETURN_NOT_OK(s->Exec(InsertSql(stage, model, added)).status());
      }
    }
    ORPHEUS_ASSIGN_OR_RETURN(std::string reply,
                             s->Exec("commit -t " + stage + " -m load"));
    const std::string want = "committed version " + std::to_string(v.vid) + " ";
    if (reply.rfind(want, 0) != 0) {
      return Status::Internal("load of " + name + " v" + std::to_string(v.vid) +
                              " answered: " + reply);
    }
  }
  return Status::OK();
}

std::vector<std::vector<int64_t>> ParseRows(const std::string& reply) {
  std::vector<std::vector<int64_t>> rows;
  std::istringstream in(reply);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '.') continue;  // "... (n more rows)"
    std::vector<int64_t> row;
    std::istringstream cells(line);
    std::string cell;
    while (std::getline(cells, cell, '|')) {
      row.push_back(std::strtoll(cell.c_str(), nullptr, 10));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

int64_t DirBytes(const std::string& dir) {
  int64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += static_cast<int64_t>(entry.file_size());
  }
  return total;
}

}  // namespace perfbench
