// Durable storage subsystem tests: export round-trips for all five
// data models, WAL replay, checkpointing, and the recovery edge cases
// the contract promises to survive — torn WAL tails at every byte
// boundary of the last record, CRC-corrupted records, corrupt
// segments and manifests, and empty-directory opens. The
// crash-prefix property test is the acceptance bar: recovery from any
// WAL-record prefix reproduces the corresponding engine state
// bit-identically, across --threads {1, 4}.

#include <sys/stat.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cli/command_processor.h"
#include "common/thread_pool.h"
#include "core/orpheus.h"
#include "storage/io_util.h"
#include "storage/manifest.h"
#include "storage/snapshot.h"
#include "storage/storage_manager.h"
#include "storage/wal.h"

namespace orpheus {
namespace {

using core::Cvd;
using core::CvdOptions;
using core::DataModelKind;
using core::OrpheusDB;
using core::VersionId;

// RAII temp directory.
class TempDir {
 public:
  TempDir() { path_ = storage::MakeTempDir("orpheus_persist_").ValueOrDie(); }
  ~TempDir() { (void)storage::RemoveDirRecursive(path_); }
  const std::string& path() const { return path_; }
  std::string Sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

std::string ManifestPath(const std::string& dir) {
  return storage::StorageManager::ManifestPath(dir);
}
std::string SegmentsDir(const std::string& dir) {
  return storage::StorageManager::SegmentsDir(dir);
}
std::string WalPath(const std::string& dir) {
  return storage::StorageManager::WalPath(dir);
}

// Byte-exact column/chunk comparison (doubles compared as bits).
void ExpectChunksEqual(const rel::Chunk& want, const rel::Chunk& got,
                       const std::string& context) {
  ASSERT_EQ(want.num_columns(), got.num_columns()) << context;
  ASSERT_EQ(want.num_rows(), got.num_rows()) << context;
  for (int c = 0; c < want.num_columns(); ++c) {
    const std::string ctx =
        context + " column " + want.schema().column(c).name;
    ASSERT_EQ(want.schema().column(c).name, got.schema().column(c).name) << ctx;
    ASSERT_EQ(want.schema().column(c).type, got.schema().column(c).type) << ctx;
    const rel::Column& a = want.column(c);
    const rel::Column& b = got.column(c);
    ASSERT_EQ(a.type(), b.type()) << ctx;
    for (size_t r = 0; r < want.num_rows(); ++r) {
      ASSERT_EQ(a.IsNull(r), b.IsNull(r)) << ctx << " row " << r;
    }
    switch (a.type()) {
      case rel::DataType::kInt64:
      case rel::DataType::kBool:
        ASSERT_EQ(a.ints(), b.ints()) << ctx;
        break;
      case rel::DataType::kDouble:
        ASSERT_EQ(a.doubles().size(), b.doubles().size()) << ctx;
        ASSERT_EQ(0, std::memcmp(a.doubles().data(), b.doubles().data(),
                                 a.doubles().size() * sizeof(double)))
            << ctx;
        break;
      case rel::DataType::kString:
        ASSERT_EQ(a.strings(), b.strings()) << ctx;
        break;
      case rel::DataType::kIntArray:
        ASSERT_EQ(a.arrays(), b.arrays()) << ctx;
        break;
      case rel::DataType::kNull:
        break;
    }
  }
}

// Full engine state reference: every table's payload plus the
// versioning surface and the whole-engine snapshot image. Captured
// after each operation in the crash tests, compared bit-exactly
// against recovered engines.
struct EngineRef {
  std::map<std::string, rel::Chunk> tables;
  std::vector<std::string> cvds;
  std::map<std::string, VersionId> latest;
  std::map<std::string, int64_t> total_records;
  std::map<std::string, std::vector<std::string>> staged;
  std::map<std::string, std::map<VersionId, rel::Chunk>> version_rows;
  // Per CVD and version: parents in precedence order, edge weights.
  std::map<std::string,
           std::map<VersionId, std::pair<std::vector<VersionId>,
                                         std::vector<int64_t>>>>
      edges;
  // SnapshotCodec image: every table plus each CVD's logical clock
  // and staging area.
  std::string image;
};

// Staged table names of every CVD in `db`.
std::set<std::string> StagedNames(OrpheusDB* db) {
  std::set<std::string> names;
  for (const std::string& cvd : db->ListCvds()) {
    for (const auto& [table, info] : db->GetCvd(cvd).value()->staged_tables()) {
      names.insert(table);
    }
  }
  return names;
}

EngineRef Capture(OrpheusDB* db) {
  EngineRef ref;
  for (const std::string& name : db->db()->ListTables()) {
    ref.tables[name] = db->db()->GetTable(name).value()->data();
  }
  ref.cvds = db->ListCvds();
  for (const std::string& name : ref.cvds) {
    Cvd* cvd = db->GetCvd(name).value();
    ref.latest[name] = cvd->latest_version();
    ref.total_records[name] = cvd->total_records();
    for (const auto& [table, info] : cvd->staged_tables()) {
      ref.staged[name].push_back(table);
    }
    for (VersionId vid : cvd->graph().versions()) {
      ref.version_rows[name].emplace(
          vid, cvd->model()->VersionRows(vid).ValueOrDie());
      const core::VersionNode* node = cvd->graph().GetNode(vid).value();
      ref.edges[name][vid] = {node->parents, node->parent_weights};
    }
  }
  ref.image = storage::SnapshotCodec::Encode(*db, 0);
  return ref;
}

// What a recovered engine must reproduce, image-exact. Checkout and
// discard are not logged and do not tick the logical clock, so a crash
// loses only the staging area since the last checkpoint: a reference
// captured with no checkout outstanding (or after its discard) holds.
void ExpectEngineEquals(const EngineRef& want, OrpheusDB* db,
                        const std::string& context) {
  std::vector<std::string> want_tables;
  for (const auto& [name, chunk] : want.tables) want_tables.push_back(name);
  ASSERT_EQ(want_tables, db->db()->ListTables()) << context;
  for (const std::string& name : want_tables) {
    ExpectChunksEqual(want.tables.at(name),
                      db->db()->GetTable(name).value()->data(),
                      context + " table " + name);
  }
  ASSERT_EQ(want.cvds, db->ListCvds()) << context;
  for (const std::string& name : want.cvds) {
    Cvd* cvd = db->GetCvd(name).value();
    EXPECT_EQ(want.latest.at(name), cvd->latest_version()) << context;
    EXPECT_EQ(want.total_records.at(name), cvd->total_records()) << context;
    std::vector<std::string> staged;
    for (const auto& [table, info] : cvd->staged_tables()) {
      staged.push_back(table);
    }
    auto want_staged = want.staged.find(name);
    EXPECT_EQ(want_staged == want.staged.end() ? std::vector<std::string>{}
                                               : want_staged->second,
              staged)
        << context;
    for (const auto& [vid, rows] : want.version_rows.at(name)) {
      ExpectChunksEqual(rows, cvd->model()->VersionRows(vid).ValueOrDie(),
                        context + " " + name + " v" + std::to_string(vid));
      const core::VersionNode* node = cvd->graph().GetNode(vid).value();
      EXPECT_EQ(want.edges.at(name).at(vid),
                std::make_pair(node->parents, node->parent_weights))
          << context << " " << name << " v" << vid << " edges";
    }
  }
  EXPECT_TRUE(want.image == storage::SnapshotCodec::Encode(*db, 0))
      << context << ": live and recovered snapshot images differ";
}

// k INT (pk), name STRING, score DOUBLE.
rel::Chunk SampleRows(int n, int offset = 0) {
  rel::Schema schema;
  schema.AddColumn("k", rel::DataType::kInt64);
  schema.AddColumn("name", rel::DataType::kString);
  schema.AddColumn("score", rel::DataType::kDouble);
  rel::Chunk rows(schema);
  for (int i = 0; i < n; ++i) {
    rows.mutable_column(0).AppendInt(offset + i);
    rows.mutable_column(1).AppendString("item_" + std::to_string(offset + i));
    rows.mutable_column(2).AppendDouble(0.1 * (offset + i) - 3.5);
  }
  return rows;
}

void CopyFileIfExists(const std::string& from, const std::string& to) {
  if (!storage::FileExists(from)) return;
  std::string bytes = storage::ReadFileToString(from).ValueOrDie();
  ASSERT_TRUE(storage::WriteFileAtomic(to, bytes).ok());
}

// Clones the durable state — MANIFEST + segments, WAL — into a fresh
// directory (simulated crash copy; LOCK excluded).
void CloneDbDir(const std::string& from, const std::string& to) {
  ASSERT_TRUE(storage::CreateDirectories(to).ok());
  CopyFileIfExists(ManifestPath(from), ManifestPath(to));
  auto segments = storage::ListDir(SegmentsDir(from));
  if (segments.ok()) {
    ASSERT_TRUE(storage::CreateDirectories(SegmentsDir(to)).ok());
    for (const std::string& name : segments.value()) {
      CopyFileIfExists(SegmentsDir(from) + "/" + name,
                       SegmentsDir(to) + "/" + name);
    }
  }
  CopyFileIfExists(WalPath(from), WalPath(to));
}

// Appends one record to `writer` as a batch of one.
Status AppendOne(storage::WalWriter* writer, storage::WalRecordType type,
                 std::string_view body) {
  storage::WalAppendEntry entry{type, body};
  return writer->AppendBatch(&entry, 1);
}

// Offsets of WAL frame boundaries (end of each complete record).
std::vector<size_t> FrameBoundaries(const std::string& bytes) {
  std::vector<size_t> boundaries;
  size_t pos = 0;
  while (bytes.size() - pos >= 8) {
    uint32_t length;
    std::memcpy(&length, bytes.data() + pos, sizeof(length));
    if (length < 9 || length > bytes.size() - pos - 8) break;
    pos += 8 + length;
    boundaries.push_back(pos);
  }
  return boundaries;
}

// --- io_util unit tests -------------------------------------------------

TEST(IoUtil, Crc32MatchesReferenceVector) {
  // The standard CRC-32 check value.
  EXPECT_EQ(0xCBF43926u, storage::Crc32("123456789"));
  EXPECT_EQ(0u, storage::Crc32(std::string_view()));
  // Incremental == one-shot.
  EXPECT_EQ(storage::Crc32("123456789"),
            storage::Crc32(std::string_view("456789"),
                           storage::Crc32(std::string_view("123"))));
}

TEST(IoUtil, BinaryRoundTrip) {
  storage::BinaryWriter w;
  w.PutU8(7);
  w.PutU32(0xDEADBEEFu);
  w.PutU64(1ull << 60);
  w.PutI64(-42);
  w.PutDouble(0.1);
  w.PutString("hello\0world");  // embedded NUL truncated by literal: fine
  storage::BinaryReader r(w.data());
  EXPECT_EQ(7, r.GetU8());
  EXPECT_EQ(0xDEADBEEFu, r.GetU32());
  EXPECT_EQ(1ull << 60, r.GetU64());
  EXPECT_EQ(-42, r.GetI64());
  EXPECT_EQ(0.1, r.GetDouble());
  EXPECT_EQ("hello", r.GetString());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(0u, r.remaining());
  // Reading past the end latches the error instead of crashing.
  EXPECT_EQ(0u, r.GetU64());
  EXPECT_FALSE(r.ok());
}

TEST(IoUtil, AtomicWriteAndReadBack) {
  TempDir dir;
  std::string path = dir.Sub("blob");
  ASSERT_TRUE(storage::WriteFileAtomic(path, "version 1").ok());
  ASSERT_TRUE(storage::WriteFileAtomic(path, "version 2").ok());
  EXPECT_EQ("version 2", storage::ReadFileToString(path).ValueOrDie());
  EXPECT_FALSE(storage::FileExists(path + ".tmp"));
}

// --- WAL unit tests -----------------------------------------------------

TEST(Wal, AppendParseRoundTripAndWatermark) {
  TempDir dir;
  std::string path = dir.Sub("wal.log");
  {
    auto writer = storage::WalWriter::Open(path, 1).ValueOrDie();
    ASSERT_TRUE(
        AppendOne(writer.get(), storage::WalRecordType::kCreateUser, "alice")
            .ok());
    ASSERT_TRUE(
        AppendOne(writer.get(), storage::WalRecordType::kDropCvd, "t").ok());
    EXPECT_EQ(3u, writer->next_lsn());
  }
  std::string bytes = storage::ReadFileToString(path).ValueOrDie();
  size_t valid = 0;
  auto records = storage::ParseWal(bytes, 0, &valid);
  ASSERT_EQ(2u, records.size());
  EXPECT_EQ(valid, bytes.size());
  EXPECT_EQ(1u, records[0].lsn);
  EXPECT_EQ(storage::WalRecordType::kCreateUser, records[0].type);
  EXPECT_EQ("alice", records[0].payload);
  EXPECT_EQ(2u, records[1].lsn);
  // The watermark skips already-snapshotted records.
  EXPECT_EQ(1u, storage::ParseWal(bytes, 1, &valid).size());
  EXPECT_EQ(0u, storage::ParseWal(bytes, 2, &valid).size());
}

TEST(Wal, TornTailStopsCleanly) {
  TempDir dir;
  std::string path = dir.Sub("wal.log");
  {
    auto writer = storage::WalWriter::Open(path, 1).ValueOrDie();
    ASSERT_TRUE(
        AppendOne(writer.get(), storage::WalRecordType::kCreateUser, "a").ok());
    ASSERT_TRUE(
        AppendOne(writer.get(), storage::WalRecordType::kCreateUser, "b").ok());
  }
  std::string bytes = storage::ReadFileToString(path).ValueOrDie();
  std::vector<size_t> boundaries = FrameBoundaries(bytes);
  ASSERT_EQ(2u, boundaries.size());
  for (size_t cut = boundaries[0]; cut < bytes.size(); ++cut) {
    size_t valid = 0;
    auto records =
        storage::ParseWal(std::string_view(bytes).substr(0, cut), 0, &valid);
    EXPECT_EQ(1u, records.size()) << "cut at " << cut;
    EXPECT_EQ(boundaries[0], valid) << "cut at " << cut;
  }
}

// --- Snapshot round trips ----------------------------------------------

class SnapshotAllModels : public ::testing::TestWithParam<DataModelKind> {};

TEST_P(SnapshotAllModels, RoundTripIsBitIdentical) {
  TempDir dir;
  EngineRef ref;
  {
    OrpheusDB db;
    CvdOptions options;
    options.model = GetParam();
    options.primary_key = {"k"};
    ASSERT_TRUE(db.InitCvd("t", SampleRows(8), options, "init").ok());
    // v2: modify + extend through the real staged-commit path.
    ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
    ASSERT_TRUE(db.db()->Execute("UPDATE w SET score = 9.25 WHERE k < 3").ok());
    ASSERT_TRUE(db.Commit("t", "w", "v2").ValueOrDie() == 2);
    // v3: schema evolution for the models that support it (the split
    // models); elsewhere stay within the fixed schema.
    ASSERT_TRUE(db.Checkout("t", {2}, "w2").ok());
    if (GetParam() == DataModelKind::kSplitByVlist ||
        GetParam() == DataModelKind::kSplitByRlist) {
      rel::Table* staged = db.db()->GetTable("w2").ValueOrDie();
      ASSERT_TRUE(staged->AddColumn("flag", rel::DataType::kInt64).ok());
      staged->mutable_chunk().mutable_column(4).Set(0, rel::Value::Int(1));
    } else {
      ASSERT_TRUE(
          db.db()->Execute("UPDATE w2 SET name = 'renamed' WHERE k = 5").ok());
    }
    ASSERT_TRUE(db.Commit("t", "w2", "v3").ValueOrDie() == 3);
    // Leave a staged checkout behind: the snapshot must carry it.
    ASSERT_TRUE(db.Checkout("t", {3}, "pending").ok());
    ASSERT_TRUE(db.CreateUser("alice").ok());
    ASSERT_TRUE(db.Login("alice").ok());

    ref = Capture(&db);
    ASSERT_TRUE(db.SaveSnapshot(dir.path()).ok());
  }
  // The export is an ordinary database directory.
  EXPECT_TRUE(storage::FileExists(ManifestPath(dir.path())));
  EXPECT_FALSE(storage::FileExists(dir.Sub("snapshot.orph")));
  OrpheusDB restored;
  ASSERT_TRUE(restored.Open(dir.path()).ok());
  ExpectEngineEquals(ref, &restored, "restored");
  EXPECT_EQ("alice", restored.WhoAmI());
  // The restored engine is fully operational: commit the surviving
  // staged table and check out the result.
  VersionId v4 = restored.Commit("t", "pending", "v4").ValueOrDie();
  EXPECT_EQ(4, v4);
  EXPECT_EQ(8u, restored.GetCvd("t")
                    .ValueOrDie()
                    ->model()
                    ->VersionRows(v4)
                    .ValueOrDie()
                    .num_rows());
}

INSTANTIATE_TEST_SUITE_P(AllModels, SnapshotAllModels,
                         ::testing::Values(DataModelKind::kTablePerVersion,
                                           DataModelKind::kCombinedTable,
                                           DataModelKind::kSplitByVlist,
                                           DataModelKind::kSplitByRlist,
                                           DataModelKind::kDeltaBased));

// --- WAL recovery -------------------------------------------------------

TEST(Persistence, WalReplayRestoresCommitsExactly) {
  TempDir dir;
  EngineRef ref;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    CvdOptions options;
    options.primary_key = {"k"};
    ASSERT_TRUE(db.InitCvd("t", SampleRows(6), options, "init").ok());
    ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
    // Edit the checkout before committing: the commit record must
    // carry the edited rows, not the checkout result.
    ASSERT_TRUE(db.db()->Execute("UPDATE w SET score = -1.5 WHERE k = 2").ok());
    ASSERT_EQ(2, db.Commit("t", "w", "edited").ValueOrDie());
    ref = Capture(&db);
  }
  ASSERT_FALSE(storage::FileExists(ManifestPath(dir.path())));  // WAL only
  EngineRef ref2;
  {
    OrpheusDB recovered;
    ASSERT_TRUE(recovered.Open(dir.path()).ok());
    ExpectEngineEquals(ref, &recovered, "wal replay");
    // While this engine lives it holds the directory LOCK: a second
    // open must be refused cleanly, not corrupt the WAL.
    OrpheusDB contender;
    EXPECT_FALSE(contender.Open(dir.path()).ok());
    // And the recovered engine keeps logging: another commit survives
    // a second reopen (after this engine closes and drops the LOCK).
    ASSERT_TRUE(recovered.Checkout("t", {2}, "w2").ok());
    ASSERT_EQ(3, recovered.Commit("t", "w2", "post-recovery").ValueOrDie());
    ref2 = Capture(&recovered);
  }
  OrpheusDB recovered2;
  ASSERT_TRUE(recovered2.Open(dir.path()).ok());
  ExpectEngineEquals(ref2, &recovered2, "second recovery");
}

TEST(Persistence, MergingCheckoutAndDurableVerbsReplay) {
  TempDir dir;
  EngineRef ref;
  EngineRef after_discard;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    ASSERT_TRUE(db.CreateUser("bob").ok());
    ASSERT_TRUE(db.Login("bob").ok());
    CvdOptions options;
    options.primary_key = {"k"};
    ASSERT_TRUE(db.InitCvd("t", SampleRows(5), options, "init").ok());
    ASSERT_TRUE(db.InitCvd("gone", SampleRows(3), options, "init2").ok());
    ASSERT_TRUE(db.Checkout("t", {1}, "a").ok());
    ASSERT_TRUE(
        db.db()->Execute("UPDATE a SET name = 'x' WHERE k = 0").ok());
    ASSERT_EQ(2, db.Commit("t", "a", "v2").ValueOrDie());
    // Merging checkout across both branches, then commit.
    ASSERT_TRUE(db.Checkout("t", {2, 1}, "m").ok());
    ASSERT_EQ(3, db.Commit("t", "m", "merge").ValueOrDie());
    // A dropped CVD replays.
    ASSERT_TRUE(db.DropCvd("gone").ok());
    ref = Capture(&db);
    // A discarded checkout is not logged and leaves nothing behind:
    // no staged table and no logical-clock tick.
    ASSERT_TRUE(db.Checkout("t", {3}, "scratch").ok());
    ASSERT_TRUE(db.DiscardStaged("t", "scratch").ok());
    after_discard = Capture(&db);
  }
  OrpheusDB recovered;
  ASSERT_TRUE(recovered.Open(dir.path()).ok());
  ExpectEngineEquals(ref, &recovered, "verbs replay");
  ExpectEngineEquals(after_discard, &recovered, "after the discard");
  EXPECT_TRUE(after_discard.image == ref.image);
  EXPECT_EQ("bob", recovered.WhoAmI());
  EXPECT_FALSE(recovered.GetCvd("gone").ok());
}

TEST(Persistence, CheckpointTruncatesWalAndRecovers) {
  TempDir dir;
  EngineRef ref;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    CvdOptions options;
    ASSERT_TRUE(db.InitCvd("t", SampleRows(6), options, "init").ok());
    ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
    ASSERT_EQ(2, db.Commit("t", "w", "v2").ValueOrDie());
    ASSERT_TRUE(db.Checkpoint().ok());
    EXPECT_EQ(0, storage::FileSize(WalPath(dir.path())).ValueOrDie());
    // Post-checkpoint activity lands in the (fresh) WAL.
    ASSERT_TRUE(db.Checkout("t", {2}, "w2").ok());
    ASSERT_EQ(3, db.Commit("t", "w2", "v3").ValueOrDie());
    ref = Capture(&db);
  }
  EXPECT_GT(storage::FileSize(WalPath(dir.path())).ValueOrDie(), 0);
  OrpheusDB recovered;
  ASSERT_TRUE(recovered.Open(dir.path()).ok());
  ExpectEngineEquals(ref, &recovered, "checkpoint + tail");
}

TEST(Persistence, PartitionStoreSurvivesWalAndSnapshot) {
  TempDir dir;
  std::vector<std::vector<VersionId>> groups;
  EngineRef ref;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    CvdOptions options;
    options.primary_key = {"k"};
    ASSERT_TRUE(db.InitCvd("t", SampleRows(6), options, "init").ok());
    for (VersionId v = 1; v <= 2; ++v) {
      std::string w = "w" + std::to_string(v);
      ASSERT_TRUE(db.Checkout("t", {v}, w).ok());
      ASSERT_TRUE(db.db()
                      ->Execute("UPDATE " + w + " SET score = " +
                                std::to_string(v) + ".5 WHERE k = 1")
                      .ok());
      ASSERT_EQ(v + 1, db.Commit("t", w, "step").ValueOrDie());
    }
    Cvd* cvd = db.GetCvd("t").ValueOrDie();
    auto* model = dynamic_cast<core::SplitByRlistModel*>(cvd->model());
    ASSERT_NE(nullptr, model);
    part::Partitioning partitioning;
    partitioning.groups = {{1, 2}, {3}};
    std::map<VersionId, std::vector<core::RecordId>> version_rids;
    for (VersionId v : {1, 2, 3}) {
      version_rids[v] = model->VersionRecords(v).ValueOrDie();
    }
    auto store = std::make_unique<part::PartitionStore>(db.db(), "t",
                                                        model->DataTable());
    ASSERT_TRUE(store->Build(partitioning, version_rids).ok());
    ASSERT_TRUE(db.AttachPartitionStore("t", std::move(store)).ok());
    groups = db.partition_store("t")->VersionGroups();
    ref = Capture(&db);
  }
  // Pass 1: recovery must rebuild the store from the WAL record.
  {
    OrpheusDB recovered;
    ASSERT_TRUE(recovered.Open(dir.path()).ok());
    ExpectEngineEquals(ref, &recovered, "wal partition recovery");
    part::PartitionStore* store = recovered.partition_store("t");
    ASSERT_NE(nullptr, store);
    EXPECT_EQ(groups, store->VersionGroups());
    // Routing goes through the partition tables.
    auto tables = store->TablesFor(3).ValueOrDie();
    EXPECT_EQ(tables.first, "t_p1_data");
    // Checkout override serves the restored partitions.
    Cvd* cvd = recovered.GetCvd("t").ValueOrDie();
    ASSERT_TRUE(cvd->Checkout({3}, "out").ok());
    ExpectChunksEqual(ref.version_rows.at("t").at(3),
                      recovered.db()->GetTable("out").ValueOrDie()->data(),
                      "partitioned checkout");
    // Versioned SQL resolves through the restored store.
    rel::Chunk q =
        recovered.Run("SELECT k FROM VERSION 2 OF CVD t").ValueOrDie();
    EXPECT_EQ(6u, q.num_rows());
    ASSERT_TRUE(recovered.Checkpoint().ok());
  }
  // Pass 2: after the checkpoint the store must come back from the
  // snapshot codec path instead.
  OrpheusDB again;
  ASSERT_TRUE(again.Open(dir.path()).ok());
  part::PartitionStore* store = again.partition_store("t");
  ASSERT_NE(nullptr, store);
  EXPECT_EQ(groups, store->VersionGroups());
  Cvd* cvd = again.GetCvd("t").ValueOrDie();
  ASSERT_TRUE(cvd->Checkout({2}, "out2").ok());
  ExpectChunksEqual(ref.version_rows.at("t").at(2),
                    again.db()->GetTable("out2").ValueOrDie()->data(),
                    "snapshot partition checkout");
}

// A version committed after the repartition is in no partition: it is
// read from the CVD's own tables, live, after WAL replay and after a
// checkpoint.
TEST(Persistence, VersionCommittedAfterRepartitionSurvivesWalAndSnapshot) {
  TempDir dir;
  rel::Chunk live;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    CvdOptions options;
    options.primary_key = {"k"};
    ASSERT_TRUE(db.InitCvd("t", SampleRows(6), options, "init").ok());
    ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
    ASSERT_TRUE(db.db()->Execute("UPDATE w SET score = 1.5 WHERE k = 1").ok());
    ASSERT_EQ(2, db.Commit("t", "w", "step").ValueOrDie());
    part::Partitioning partitioning;
    partitioning.groups = {{1}, {2}};
    ASSERT_TRUE(db.Repartition("t", partitioning).ok());
    ASSERT_TRUE(db.Checkout("t", {2}, "w").ok());
    ASSERT_TRUE(db.db()->Execute("UPDATE w SET score = 2.5 WHERE k = 2").ok());
    ASSERT_TRUE(db.db()->Execute("INSERT INTO w (k, name, score) VALUES (9, 'nine', 9.5)").ok());
    ASSERT_EQ(3, db.Commit("t", "w", "after repartition").ValueOrDie());
    ASSERT_TRUE(db.Checkout("t", {3}, "out").ok());
    live = db.db()->GetTable("out").ValueOrDie()->data();
    ASSERT_TRUE(db.DiscardStaged("t", "out").ok());
    ASSERT_EQ(7u, live.num_rows());
  }
  for (const char* pass : {"wal", "checkpoint"}) {
    SCOPED_TRACE(pass);
    OrpheusDB recovered;
    ASSERT_TRUE(recovered.Open(dir.path()).ok());
    ASSERT_NE(nullptr, recovered.partition_store("t"));
    ASSERT_TRUE(recovered.Checkout("t", {3}, "out").ok());
    ExpectChunksEqual(live, recovered.db()->GetTable("out").ValueOrDie()->data(),
                      std::string(pass) + " checkout of v3");
    EXPECT_EQ(7u, recovered.Run("SELECT k FROM VERSION 3 OF CVD t")
                      .ValueOrDie()
                      .num_rows());
    ASSERT_TRUE(recovered.DiscardStaged("t", "out").ok());
    ASSERT_TRUE(recovered.Checkpoint().ok());
  }
}

// --- Recovery edge cases ------------------------------------------------

TEST(Persistence, TornWalTailAtEveryByteOfLastRecord) {
  TempDir dir;
  EngineRef after_first;
  EngineRef after_second;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    CvdOptions options;
    ASSERT_TRUE(db.InitCvd("t", SampleRows(4), options, "init").ok());
    ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
    ASSERT_EQ(2, db.Commit("t", "w", "v2").ValueOrDie());
    after_first = Capture(&db);
    ASSERT_TRUE(db.Checkout("t", {2}, "w2").ok());
    ASSERT_TRUE(db.db()->Execute("UPDATE w2 SET score = 7.0 WHERE k = 3").ok());
    ASSERT_EQ(3, db.Commit("t", "w2", "v3").ValueOrDie());
    after_second = Capture(&db);
  }
  std::string bytes =
      storage::ReadFileToString(WalPath(dir.path())).ValueOrDie();
  std::vector<size_t> boundaries = FrameBoundaries(bytes);
  ASSERT_EQ(3u, boundaries.size());  // init, commit, commit
  size_t last_start = boundaries[boundaries.size() - 2];
  // A cut inside the last record recovers everything up to and
  // including the penultimate record: the first commit, exactly as
  // the live engine held it (the w2 checkout was never logged).
  const EngineRef& expect_torn = after_first;
  for (size_t cut = last_start; cut < bytes.size(); ++cut) {
    TempDir probe;
    std::string clone = probe.Sub("db");
    CloneDbDir(dir.path(), clone);
    ASSERT_TRUE(storage::TruncateFile(WalPath(clone), cut).ok());
    {
      OrpheusDB recovered;
      ASSERT_TRUE(recovered.Open(clone).ok()) << "cut at " << cut;
      ExpectEngineEquals(expect_torn, &recovered,
                         "cut at " + std::to_string(cut));
      // The torn tail was discarded on open, so new appends land on a
      // clean boundary and a re-open still works.
      EXPECT_LE(storage::FileSize(WalPath(clone)).ValueOrDie(),
                static_cast<int64_t>(cut));
      ASSERT_TRUE(recovered.Checkout("t", {2}, "fresh").ok());
    }
    OrpheusDB reopened;
    ASSERT_TRUE(reopened.Open(clone).ok()) << "reopen after cut " << cut;
  }
  // A cut exactly at the end recovers the full state.
  OrpheusDB full;
  ASSERT_TRUE(full.Open(dir.path()).ok());
  ExpectEngineEquals(after_second, &full, "no cut");
}

TEST(Persistence, CrcCorruptedRecordStopsReplayCleanly) {
  TempDir dir;
  EngineRef after_first;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    CvdOptions options;
    ASSERT_TRUE(db.InitCvd("t", SampleRows(4), options, "init").ok());
    after_first = Capture(&db);
    ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
    ASSERT_EQ(2, db.Commit("t", "w", "v2").ValueOrDie());
  }
  std::string bytes =
      storage::ReadFileToString(WalPath(dir.path())).ValueOrDie();
  std::vector<size_t> boundaries = FrameBoundaries(bytes);
  ASSERT_EQ(2u, boundaries.size());  // init, commit
  // Corrupt one payload byte of the final (commit) record.
  {
    std::string corrupt = bytes;
    corrupt[boundaries[boundaries.size() - 2] + 8 + 3] ^= 0x40;
    TempDir probe;
    std::string clone = probe.Sub("db");
    CloneDbDir(dir.path(), clone);
    ASSERT_TRUE(storage::WriteFileAtomic(WalPath(clone), corrupt).ok());
    OrpheusDB recovered;
    ASSERT_TRUE(recovered.Open(clone).ok());
    // Last durable state before the corrupt record: the init. The
    // commit is lost, and its checkout was never logged.
    ExpectEngineEquals(after_first, &recovered, "corrupt commit");
    EXPECT_TRUE(recovered.GetCvd("t").ValueOrDie()->staged_tables().empty());
  }
  // Corrupt the first record: nothing replays, the engine opens empty.
  {
    std::string corrupt = bytes;
    corrupt[8 + 10] ^= 0x01;
    TempDir probe;
    std::string clone = probe.Sub("db");
    CloneDbDir(dir.path(), clone);
    ASSERT_TRUE(storage::WriteFileAtomic(WalPath(clone), corrupt).ok());
    OrpheusDB recovered;
    ASSERT_TRUE(recovered.Open(clone).ok());
    EXPECT_TRUE(recovered.ListCvds().empty());
  }
}

// --- Hostile commit records --------------------------------------------

// A database whose WAL ends with the commit of v2, ready for a crafted
// commit of a child of v2 ("w2"). v1 holds rids 0-5; v2 drops rid 5
// and replaces rid 1 with rid 6, so total_records() is 7. The clock
// reads 2 after replay and live (init, commit; checkouts do not tick
// it). The good record's times, 4 and 5, are ahead of it.
void BuildCommitBase(const std::string& dir) {
  OrpheusDB db;
  ASSERT_TRUE(db.Open(dir).ok());
  CvdOptions options;
  ASSERT_TRUE(db.InitCvd("t", SampleRows(6), options, "init").ok());
  ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
  ASSERT_TRUE(db.db()->Execute("DELETE FROM w WHERE k = 5").ok());
  ASSERT_TRUE(db.db()->Execute("UPDATE w SET score = 7.5 WHERE k = 1").ok());
  ASSERT_EQ(2, db.Commit("t", "w", "v2").ValueOrDie());
  ASSERT_EQ(7, db.GetCvd("t").ValueOrDie()->total_records());
  ASSERT_TRUE(db.Checkout("t", {2}, "w2").ok());
}

rel::Schema SampleDataSchema() { return SampleRows(0).schema(); }

rel::Schema SampleRecordSchema() {
  rel::Schema schema;
  schema.AddColumn("rid", rel::DataType::kInt64);
  const rel::Schema data_schema = SampleDataSchema();
  for (const rel::ColumnDef& def : data_schema.columns()) {
    schema.AddColumn(def.name, def.type);
  }
  return schema;
}

// New records (schema: rid + SampleRows attributes) with the given rids.
rel::Chunk NewRecords(const std::vector<int64_t>& rids) {
  rel::Chunk rows(SampleRecordSchema());
  for (int64_t rid : rids) {
    rows.AppendRow({rel::Value::Int(rid), rel::Value::Int(100 + rid),
                    rel::Value::String("new"), rel::Value::Double(0.25)});
  }
  return rows;
}

// The parents and times of the crafted commit (tag 10 fields).
struct CommitHeader {
  std::vector<int64_t> parents = {2};
  int64_t checkout_time = 4;
  int64_t commit_time = 5;
};

std::string CommitBody(const std::vector<int64_t>& rids,
                       const rel::Chunk& new_records,
                       const rel::Schema& staged_schema = SampleDataSchema(),
                       const CommitHeader& header = {}) {
  storage::BinaryWriter body;
  body.PutString("t");
  body.PutString("w2");
  body.PutString("crafted");
  storage::EncodeI64Vec(header.parents, &body);
  body.PutI64(header.checkout_time);
  body.PutI64(header.commit_time);
  storage::EncodeSchema(staged_schema, &body);
  storage::EncodeI64Vec(rids, &body);
  storage::EncodeChunk(new_records, &body);
  return body.Release();
}

// Clones `base` and appends one record to the clone's WAL; returns the
// record's LSN.
uint64_t CloneWithRecord(const std::string& base, const std::string& clone,
                         storage::WalRecordType type, const std::string& body) {
  CloneDbDir(base, clone);
  std::string bytes = storage::ReadFileToString(WalPath(base)).ValueOrDie();
  size_t valid = 0;
  std::vector<storage::WalRecord> records = storage::ParseWal(bytes, 0, &valid);
  const uint64_t lsn = records.back().lsn + 1;
  auto writer =
      storage::WalWriter::Open(WalPath(clone), lsn, records.size()).ValueOrDie();
  EXPECT_TRUE(AppendOne(writer.get(), type, body).ok());
  return lsn;
}

void ExpectOpenFailsAt(const std::string& dir, uint64_t lsn,
                       const std::string& want = "") {
  OrpheusDB db;
  Status st = db.Open(dir);
  ASSERT_FALSE(st.ok());
  EXPECT_FALSE(db.durable());
  EXPECT_NE(std::string::npos, st.message().find("lsn " + std::to_string(lsn)))
      << st.message();
  EXPECT_NE(std::string::npos, st.message().find(want)) << st.message();
}

TEST(Persistence, HostileCommitRecordsFailReplayCleanly) {
  TempDir base;
  BuildCommitBase(base.path());
  TempDir clones;
  int id = 0;
  auto next_clone = [&] { return clones.Sub("c" + std::to_string(id++)); };

  // The well-formed record replays: rid 7 is the one new record.
  const std::vector<int64_t> good_rids = {0, 6, 2, 3, 4, 7};
  const std::string good = CommitBody(good_rids, NewRecords({7}));
  {
    const std::string clone = next_clone();
    CloneWithRecord(base.path(), clone, storage::WalRecordType::kCommit, good);
    OrpheusDB db;
    ASSERT_TRUE(db.Open(clone).ok());
    Cvd* cvd = db.GetCvd("t").ValueOrDie();
    EXPECT_EQ(3, cvd->latest_version());
    EXPECT_EQ(8, cvd->total_records());
    EXPECT_EQ(good_rids, cvd->model()->VersionRecords(3).ValueOrDie());
    EXPECT_EQ(std::vector<VersionId>{2},
              cvd->graph().GetNode(3).ValueOrDie()->parents);
    // The metadata row carries the logged times.
    rel::Chunk meta =
        db.db()->Execute("SELECT checkout_t, commit_t FROM t_meta WHERE vid = 3")
            .ValueOrDie();
    ASSERT_EQ(1u, meta.num_rows());
    EXPECT_EQ(4, meta.column(0).ints()[0]);
    EXPECT_EQ(5, meta.column(1).ints()[0]);
    EXPECT_TRUE(cvd->staged_tables().empty());
  }

  // Truncated at every byte.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    SCOPED_TRACE("truncated to " + std::to_string(cut));
    const std::string clone = next_clone();
    uint64_t lsn = CloneWithRecord(base.path(), clone,
                                   storage::WalRecordType::kCommit,
                                   good.substr(0, cut));
    ExpectOpenFailsAt(clone, lsn);
  }

  struct Case {
    std::string name;
    std::string body;
    std::string want;  // part of the expected message
  };
  std::vector<Case> cases;
  {
    // A rid count that runs past the end of the body.
    storage::BinaryWriter body;
    body.PutString("t");
    body.PutString("w2");
    body.PutString("crafted");
    storage::EncodeI64Vec({2}, &body);
    body.PutI64(4);
    body.PutI64(5);
    storage::EncodeSchema(SampleDataSchema(), &body);
    body.PutU32(1000);
    for (int64_t rid : good_rids) body.PutI64(rid);
    storage::EncodeChunk(NewRecords({7}), &body);
    cases.push_back({"rid count past the end", body.Release(), "truncated"});
  }
  cases.push_back({"rid in no parent and not new",
                   CommitBody({0, 6, 2, 3, 5, 7}, NewRecords({7})),
                   "neither new nor in a parent"});
  cases.push_back({"negative rid", CommitBody({0, 6, 2, 3, -1, 7}, NewRecords({7})),
                   "neither new nor in a parent"});
  cases.push_back({"new rids skip ahead",
                   CommitBody({0, 6, 2, 3, 4, 9}, NewRecords({9})),
                   "next new record is rid 7"});
  cases.push_back({"rid list and new records disagree",
                   CommitBody({0, 6, 2, 3, 4, 8}, NewRecords({7, 8})),
                   "next new record is rid 7"});
  cases.push_back({"new rid reused", CommitBody({7, 7}, NewRecords({7})),
                   "next new record is rid 8"});
  cases.push_back({"unreferenced new record",
                   CommitBody({0, 6, 2, 3, 4}, NewRecords({7})),
                   "1 new records, but the committed rows use 0"});
  {
    // New records missing an attribute the schema names.
    rel::Schema narrow;
    narrow.AddColumn("rid", rel::DataType::kInt64);
    narrow.AddColumn("k", rel::DataType::kInt64);
    narrow.AddColumn("name", rel::DataType::kString);
    rel::Chunk rows(narrow);
    rows.AppendRow({rel::Value::Int(7), rel::Value::Int(1), rel::Value::String("x")});
    cases.push_back({"schema does not match new records",
                     CommitBody(good_rids, rows), "do not match the record schema"});
    // A logged schema that narrows an attribute's type.
    rel::Schema int_score;
    const rel::Schema data_schema = SampleDataSchema();
  for (const rel::ColumnDef& def : data_schema.columns()) {
      int_score.AddColumn(def.name, def.name == "score" ? rel::DataType::kInt64
                                                        : def.type);
    }
    rel::Schema int_records;
    int_records.AddColumn("rid", rel::DataType::kInt64);
    for (const rel::ColumnDef& def : int_score.columns()) {
      int_records.AddColumn(def.name, def.type);
    }
    rel::Chunk int_rows(int_records);
    int_rows.AppendRow({rel::Value::Int(7), rel::Value::Int(1),
                        rel::Value::String("x"), rel::Value::Int(3)});
    cases.push_back({"new records narrower than the pool",
                     CommitBody(good_rids, int_rows, int_score),
                     "do not match the record schema"});
    rel::Schema with_rid = SampleDataSchema();
    with_rid.AddColumn("rid", rel::DataType::kInt64);
    cases.push_back({"schema names rid", CommitBody(good_rids, NewRecords({7}), with_rid),
                     "reserved rid column"});
  }
  cases.push_back({"trailing bytes", good + "x", "trailing bytes"});
  auto with_header = [&](const CommitHeader& header) {
    return CommitBody(good_rids, NewRecords({7}), SampleDataSchema(), header);
  };
  cases.push_back({"no parent", with_header({{}, 4, 5}), "names no parent"});
  cases.push_back({"parent not a version", with_header({{2, 9}, 4, 5}),
                   "commit parent 9 is not a version"});
  // v1 does not hold rid 6, which the rids reuse from v2.
  cases.push_back({"rid of the wrong parent", with_header({{1}, 4, 5}),
                   "neither new nor in a parent"});
  cases.push_back({"commit time behind the clock", with_header({{2}, 1, 2}),
                   "does not follow the logical clock 2"});
  cases.push_back({"checkout time after the commit", with_header({{2}, 6, 5}),
                   "and the checkout time 6"});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string clone = next_clone();
    uint64_t lsn = CloneWithRecord(base.path(), clone,
                                   storage::WalRecordType::kCommit, c.body);
    ExpectOpenFailsAt(clone, lsn, c.want);
  }
}

// Records of a retired type — 4 checkout, 5 and 9 earlier commit
// formats, 6 discard — are refused by number, like a v1 snapshot.orph,
// never silently skipped. A plausible body (the retired commit's) does
// not get one past.
TEST(Persistence, RetiredRecordTypesFailOpenNamingTheirLsn) {
  TempDir base;
  BuildCommitBase(base.path());
  storage::BinaryWriter body;
  body.PutString("t");
  body.PutString("w2");
  body.PutString("old format");
  storage::EncodeSchema(SampleDataSchema(), &body);
  storage::EncodeI64Vec({0, 6, 2, 3, 4}, &body);
  storage::EncodeChunk(NewRecords({}), &body);
  const std::string retired_body = body.Release();
  TempDir clones;
  for (int tag : {4, 5, 6, 9}) {
    SCOPED_TRACE("tag " + std::to_string(tag));
    const std::string clone = clones.Sub("c" + std::to_string(tag));
    uint64_t lsn = CloneWithRecord(base.path(), clone,
                                   static_cast<storage::WalRecordType>(tag),
                                   retired_body);
    ExpectOpenFailsAt(clone, lsn,
                      "record type " + std::to_string(tag) + " is retired");
  }
}

// Fig. 3 of the paper as an exact gate: on split-by-rlist, a commit's
// WAL record, its new records and the rows it scans depend on the edit
// and the version's size, not on the history length. The record is the
// rid list (8 bytes per row) plus the four new records.
TEST(Persistence, CommitWalBytesTrackTheEditNotTheHistory) {
  constexpr int kRows = 1000;
  rel::Schema schema;
  schema.AddColumn("k", rel::DataType::kInt64);
  for (int c = 0; c < 4; ++c) {
    schema.AddColumn("i" + std::to_string(c), rel::DataType::kInt64);
    schema.AddColumn("s" + std::to_string(c), rel::DataType::kString);
  }
  rel::Chunk rows(schema);
  for (int r = 0; r < kRows; ++r) {
    std::vector<rel::Value> values = {rel::Value::Int(r)};
    for (int c = 0; c < 4; ++c) {
      values.push_back(rel::Value::Int(r * 7 + c));
      values.push_back(rel::Value::String("value-" + std::to_string(r)));
    }
    rows.AppendRow(values);
  }
  TempDir dir;
  OrpheusDB db;
  ASSERT_TRUE(db.Open(dir.path()).ok());
  CvdOptions options;
  options.primary_key = {"k"};
  ASSERT_TRUE(db.InitCvd("t", rows, options, "init").ok());
  Cvd* cvd = db.GetCvd("t").ValueOrDie();

  std::map<int, uint64_t> wal_bytes;
  std::map<int, int64_t> new_records;
  std::map<int, int64_t> rows_scanned;  // Fig. 3 left: rows scanned
  for (int history = 2; history <= 100; ++history) {
    ASSERT_TRUE(db.Checkout("t", {cvd->latest_version()}, "w").ok());
    for (int k : {10, 20, 30, 40}) {  // a fixed 4-row edit
      ASSERT_TRUE(db.db()
                      ->Execute("UPDATE w SET i0 = " + std::to_string(100000 + history) +
                                " WHERE k = " + std::to_string(k))
                      .ok());
    }
    const uint64_t bytes_before = db.storage()->wal_bytes();
    const int64_t records_before = cvd->total_records();
    const int64_t scanned_before = db.db()->stats()->rows_scanned;
    ASSERT_EQ(history, db.Commit("t", "w", "bump").ValueOrDie());
    wal_bytes[history] = db.storage()->wal_bytes() - bytes_before;
    new_records[history] = cvd->total_records() - records_before;
    rows_scanned[history] = db.db()->stats()->rows_scanned - scanned_before;
  }
  EXPECT_EQ(4, new_records[10]);
  EXPECT_EQ(new_records[10], new_records[100]);
  EXPECT_EQ(wal_bytes[10], wal_bytes[100]);
  EXPECT_EQ(rows_scanned[10], rows_scanned[100]);
  EXPECT_LE(wal_bytes[100], uint64_t{16} * kRows + 1024) << wal_bytes[100];
}

// Checkout is a read: a durable checkout -> UPDATE -> commit cycle
// costs exactly one WAL record and one fdatasync, the commit's. The
// checkout, the edit and a discard append nothing.
TEST(Persistence, DurableEditCycleAppendsOneRecordAndOneSync) {
  TempDir dir;
  OrpheusDB db;
  ASSERT_TRUE(db.Open(dir.path()).ok());
  CvdOptions options;
  options.primary_key = {"k"};
  ASSERT_TRUE(db.InitCvd("t", SampleRows(6), options, "init").ok());
  storage::StorageManager* sm = db.storage();
  for (const std::vector<VersionId>& parents :
       {std::vector<VersionId>{1}, std::vector<VersionId>{2, 1}}) {
    SCOPED_TRACE("parents " + std::to_string(parents.size()));
    const uint64_t bytes = sm->wal_bytes();
    const uint64_t records = sm->wal_records();
    const uint64_t syncs = sm->wal_syncs();
    ASSERT_TRUE(db.Checkout("t", parents, "w").ok());
    ASSERT_TRUE(db.db()->Execute("UPDATE w SET score = 9.5 WHERE k = 3").ok());
    EXPECT_EQ(bytes, sm->wal_bytes());
    EXPECT_EQ(records, sm->wal_records());
    EXPECT_EQ(syncs, sm->wal_syncs());
    ASSERT_TRUE(db.Commit("t", "w", "edit").ok());
    EXPECT_EQ(records + 1, sm->wal_records());
    EXPECT_EQ(syncs + 1, sm->wal_syncs());
  }
  const uint64_t bytes = sm->wal_bytes();
  const uint64_t syncs = sm->wal_syncs();
  ASSERT_TRUE(db.Checkout("t", {3}, "scratch").ok());
  ASSERT_TRUE(db.DiscardStaged("t", "scratch").ok());
  EXPECT_EQ(bytes, sm->wal_bytes());
  EXPECT_EQ(syncs, sm->wal_syncs());
}

// Seeds CVD "t" (primary key k) with two branches of v1: v2 edits one
// row; v3 deletes three rows and edits one, so it shares fewer records
// with v1 than v2 does.
void SeedTwoBranches(OrpheusDB* db, DataModelKind model) {
  CvdOptions options;
  options.model = model;
  options.primary_key = {"k"};
  ASSERT_TRUE(db->InitCvd("t", SampleRows(8), options, "init").ok());
  ASSERT_TRUE(db->Checkout("t", {1}, "a").ok());
  ASSERT_TRUE(db->db()->Execute("UPDATE a SET score = 1.5 WHERE k = 1").ok());
  ASSERT_EQ(2, db->Commit("t", "a", "a").ValueOrDie());
  ASSERT_TRUE(db->Checkout("t", {1}, "b").ok());
  ASSERT_TRUE(db->db()->Execute("DELETE FROM b WHERE k >= 5").ok());
  ASSERT_TRUE(db->db()->Execute("UPDATE b SET name = 'b' WHERE k = 2").ok());
  ASSERT_EQ(3, db->Commit("t", "b", "b").ValueOrDie());
}

const DataModelKind kAllModels[] = {
    DataModelKind::kSplitByRlist, DataModelKind::kSplitByVlist,
    DataModelKind::kCombinedTable, DataModelKind::kDeltaBased,
    DataModelKind::kTablePerVersion};

// A merging checkout's commit replays with the logged parents in
// precedence order, so the primary parent (the one sharing the most
// records, which the delta model deltas against) and the edge weights
// come back as the live run had them.
TEST(Persistence, MergingCommitReplaysPrimaryParentAndWeights) {
  for (DataModelKind model : kAllModels) {
    SCOPED_TRACE(core::DataModelKindName(model));
    TempDir dir;
    EngineRef ref;
    {
      OrpheusDB db;
      ASSERT_TRUE(db.Open(dir.path()).ok());
      SeedTwoBranches(&db, model);
      // v3 takes precedence, but v2 shares more of the merged rows.
      ASSERT_TRUE(db.Checkout("t", {3, 2}, "m").ok());
      ASSERT_TRUE(db.db()->Execute("UPDATE m SET score = 4.5 WHERE k = 0").ok());
      ASSERT_EQ(4, db.Commit("t", "m", "merge").ValueOrDie());
      const core::VersionNode* node =
          db.GetCvd("t").ValueOrDie()->graph().GetNode(4).ValueOrDie();
      ASSERT_EQ((std::vector<VersionId>{3, 2}), node->parents);
      ASSERT_EQ(2u, node->parent_weights.size());
      EXPECT_LT(node->parent_weights[0], node->parent_weights[1]);
      ref = Capture(&db);
    }
    OrpheusDB recovered;
    ASSERT_TRUE(recovered.Open(dir.path()).ok());
    ExpectEngineEquals(ref, &recovered, "merge replay");
  }
}

// A checkout before a checkpoint, its commit after: the checkpoint
// restores the staged table and its provenance, and replay consumes
// that table as the live commit did. In the second round the restored
// table was discarded and its name checked out again from another
// version: replay takes the parents from the record, not from the
// restored provenance.
TEST(Persistence, CheckoutBeforeCheckpointCommitAfterReplaysExactly) {
  for (DataModelKind model : kAllModels) {
    for (bool recheckout : {false, true}) {
      SCOPED_TRACE(std::string(core::DataModelKindName(model)) +
                   (recheckout ? " re-checkout" : ""));
      TempDir dir;
      EngineRef ref;
      {
        OrpheusDB db;
        ASSERT_TRUE(db.Open(dir.path()).ok());
        SeedTwoBranches(&db, model);
        ASSERT_TRUE(db.Checkout("t", {3, 2}, "w").ok());
        ASSERT_TRUE(
            db.db()->Execute("UPDATE w SET score = 4.5 WHERE k = 0").ok());
        ASSERT_TRUE(db.Checkpoint().ok());
        if (recheckout) {
          ASSERT_TRUE(db.DiscardStaged("t", "w").ok());
          ASSERT_TRUE(db.Checkout("t", {2}, "w").ok());
        }
        ASSERT_TRUE(
            db.db()->Execute("UPDATE w SET name = 'late' WHERE k = 4").ok());
        ASSERT_EQ(4, db.Commit("t", "w", "after checkpoint").ValueOrDie());
        ref = Capture(&db);
      }
      OrpheusDB recovered;
      ASSERT_TRUE(recovered.Open(dir.path()).ok());
      ExpectEngineEquals(ref, &recovered, "checkpoint + commit");
    }
  }
}

// Init, commit and replay create no table of their own: a staged or
// raw table that a checkpoint restored survives the replay of a commit
// of another table under every model, whatever its name — here the
// names the engine once used for its temporaries.
TEST(Persistence, ReplayLeavesOtherTablesAlone) {
  const std::vector<std::string> bystanders = {"t_init_stage", "t_vrows_tmp",
                                               "t_replay_stage"};
  for (DataModelKind model : kAllModels) {
    SCOPED_TRACE(core::DataModelKindName(model));
    TempDir dir;
    EngineRef ref;
    {
      OrpheusDB db;
      ASSERT_TRUE(db.Open(dir.path()).ok());
      ASSERT_TRUE(db.db()->Execute("CREATE TABLE t_init_stage (x INT)").ok());
      ASSERT_TRUE(db.db()->Execute("INSERT INTO t_init_stage VALUES (1)").ok());
      ASSERT_TRUE(db.db()->Execute("CREATE TABLE t_vrows_tmp (x INT)").ok());
      ASSERT_TRUE(db.db()->Execute("INSERT INTO t_vrows_tmp VALUES (2)").ok());
      SeedTwoBranches(&db, model);
      ASSERT_TRUE(db.Checkout("t", {2}, "t_replay_stage").ok());
      ASSERT_TRUE(
          db.db()->Execute("UPDATE t_replay_stage SET score = 7.5 WHERE k = 3").ok());
      ASSERT_TRUE(db.Checkpoint().ok());
      ASSERT_TRUE(db.Checkout("t", {3}, "w").ok());
      ASSERT_TRUE(db.db()->Execute("UPDATE w SET score = 2.5 WHERE k = 0").ok());
      ASSERT_EQ(4, db.Commit("t", "w", "after checkpoint").ValueOrDie());
      ref = Capture(&db);
    }
    for (const std::string& name : bystanders) {
      EXPECT_EQ(1u, ref.tables.count(name)) << name;
    }
    OrpheusDB recovered;
    ASSERT_TRUE(recovered.Open(dir.path()).ok());
    ExpectEngineEquals(ref, &recovered, "replay beside other tables");
    EXPECT_EQ((std::set<std::string>{"t_replay_stage"}), StagedNames(&recovered));
  }
}

// A checkpoint can capture a staging entry whose table raw SQL had
// dropped; the name is then checked out again and committed. Replay
// consumes the stale entry as the live commit consumed the new one.
TEST(Persistence, StagedEntryWithoutItsTableReplays) {
  TempDir dir;
  EngineRef ref;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    SeedTwoBranches(&db, DataModelKind::kSplitByRlist);
    ASSERT_TRUE(db.Checkout("t", {2}, "w").ok());
    ASSERT_TRUE(db.db()->Execute("DROP TABLE w").ok());
    ASSERT_TRUE(db.Checkpoint().ok());
    ASSERT_TRUE(db.Checkout("t", {3}, "w").ok());
    ASSERT_TRUE(db.db()->Execute("UPDATE w SET score = 2.5 WHERE k = 0").ok());
    ASSERT_EQ(4, db.Commit("t", "w", "after checkpoint").ValueOrDie());
    ref = Capture(&db);
  }
  OrpheusDB recovered;
  Status st = recovered.Open(dir.path());
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectEngineEquals(ref, &recovered, "stale staging entry");
}

// A checkout that is never committed is not durable: after a crash
// the staged table is gone, and the engine is bit-identical to its
// state before the checkout — with the staging area restored from a
// checkpoint or empty.
TEST(Persistence, UncommittedCheckoutIsGoneAfterCrash) {
  for (bool checkpoint : {false, true}) {
    SCOPED_TRACE(checkpoint ? "after a checkpoint" : "WAL only");
    TempDir dir;
    EngineRef before;
    {
      OrpheusDB db;
      ASSERT_TRUE(db.Open(dir.path()).ok());
      SeedTwoBranches(&db, DataModelKind::kSplitByRlist);
      if (checkpoint) {
        ASSERT_TRUE(db.Checkpoint().ok());
      }
      before = Capture(&db);
      ASSERT_TRUE(db.Checkout("t", {3}, "w").ok());
      ASSERT_TRUE(db.db()->Execute("UPDATE w SET score = 0.5 WHERE k = 1").ok());
    }  // "crash": the engine goes away with w uncommitted
    OrpheusDB recovered;
    ASSERT_TRUE(recovered.Open(dir.path()).ok());
    EXPECT_FALSE(recovered.db()->HasTable("w"));
    ExpectEngineEquals(before, &recovered, "uncommitted checkout");
  }
}

TEST(Persistence, EmptyDirectoryOpensFresh) {
  TempDir dir;
  std::string nested = dir.Sub("a/b/dbdir");
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(nested).ok());
    EXPECT_TRUE(db.ListCvds().empty());
    EXPECT_TRUE(db.durable());
    EXPECT_EQ(nested, db.storage_dir());
    CvdOptions options;
    ASSERT_TRUE(db.InitCvd("t", SampleRows(3), options, "init").ok());
  }
  OrpheusDB again;
  ASSERT_TRUE(again.Open(nested).ok());
  EXPECT_EQ(std::vector<std::string>{"t"}, again.ListCvds());
}

TEST(Persistence, OpenRequiresFreshEngine) {
  TempDir dir;
  OrpheusDB db;
  CvdOptions options;
  ASSERT_TRUE(db.InitCvd("t", SampleRows(3), options, "init").ok());
  Status st = db.Open(dir.path());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, st.code());
  // And a second Open on a durable engine is rejected too.
  OrpheusDB db2;
  ASSERT_TRUE(db2.Open(dir.Sub("x")).ok());
  EXPECT_FALSE(db2.Open(dir.Sub("y")).ok());
  // Users created before Open would never reach the log, so a later
  // logged Login could reference a user replay cannot rebuild — the
  // open must refuse up front.
  OrpheusDB db3;
  ASSERT_TRUE(db3.CreateUser("bob").ok());
  Status st3 = db3.Open(dir.Sub("z"));
  ASSERT_FALSE(st3.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, st3.code());
}

TEST(Persistence, CsvStagingNamesSkipRestoredTables) {
  TempDir dir;
  // Session 1: a checkout staged under the CLI's generated csvstage
  // name, left uncommitted. Checkout is not logged, so a checkpoint
  // makes the staged table durable.
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    CvdOptions options;
    ASSERT_TRUE(db.InitCvd("t", SampleRows(3), options, "init").ok());
    ASSERT_TRUE(db.Checkout("t", {1}, "t_csvstage_0").ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  // Session 2: the checkpoint restores t_csvstage_0; a fresh CLI
  // processor's counter restarts at 0 and must skip over it.
  cli::CommandProcessor processor;
  ASSERT_TRUE(processor.Execute("open " + dir.path()).ok());
  std::string csv = dir.Sub("out.csv");
  auto result = processor.Execute("checkout t -v 1 -f " + csv);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(processor.orpheus()->db()->HasTable("t_csvstage_1"));
}

// --- The acceptance property: crash at any WAL-record prefix -----------

TEST(Persistence, CrashAtAnyWalRecordPrefixRecoversExactly) {
  for (int threads : {1, 4}) {
    SetExecThreads(threads);
    TempDir dir;
    std::vector<EngineRef> refs;  // refs[j] = state after j WAL records
    EngineRef after_discard;
    {
      OrpheusDB db;
      ASSERT_TRUE(db.Open(dir.path()).ok());
      refs.push_back(Capture(&db));  // 0 records: empty engine
      CvdOptions options;
      options.primary_key = {"k"};
      // Each logged verb below emits exactly one WAL record; capture
      // after every one so record boundary j maps to refs[j]. Checkout
      // and discard emit none.
      ASSERT_TRUE(db.CreateUser("alice").ok());
      refs.push_back(Capture(&db));
      ASSERT_TRUE(db.InitCvd("t", SampleRows(5), options, "init").ok());
      refs.push_back(Capture(&db));
      ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
      ASSERT_TRUE(
          db.db()->Execute("UPDATE w SET name = 'edit' WHERE k = 1").ok());
      ASSERT_EQ(2, db.Commit("t", "w", "v2").ValueOrDie());
      refs.push_back(Capture(&db));
      ASSERT_TRUE(db.Checkout("t", {2, 1}, "m").ok());
      ASSERT_EQ(3, db.Commit("t", "m", "merge").ValueOrDie());
      refs.push_back(Capture(&db));
      ASSERT_TRUE(db.Checkout("t", {3}, "junk").ok());
      ASSERT_TRUE(db.DiscardStaged("t", "junk").ok());
      after_discard = Capture(&db);
    }
    std::string bytes =
        storage::ReadFileToString(WalPath(dir.path())).ValueOrDie();
    std::vector<size_t> boundaries = FrameBoundaries(bytes);
    ASSERT_EQ(refs.size() - 1, boundaries.size());
    for (size_t j = 0; j <= boundaries.size(); ++j) {
      size_t cut = j == 0 ? 0 : boundaries[j - 1];
      TempDir probe;
      std::string clone = probe.Sub("db");
      CloneDbDir(dir.path(), clone);
      ASSERT_TRUE(storage::TruncateFile(WalPath(clone), cut).ok());
      OrpheusDB recovered;
      ASSERT_TRUE(recovered.Open(clone).ok())
          << "threads=" << threads << " prefix=" << j;
      const std::string context = "threads=" + std::to_string(threads) +
                                  " prefix=" + std::to_string(j);
      ExpectEngineEquals(refs[j], &recovered, context);
      // The whole log ends on the junk checkout's discard, which left
      // the engine as the last commit did.
      if (j == boundaries.size()) {
        ExpectEngineEquals(after_discard, &recovered, context + " discard");
      }
    }
  }
  SetExecThreads(1);
}

// --- Directory LOCK ------------------------------------------------------

TEST(Persistence, LockFileRefusesSecondOpenCleanly) {
  TempDir dir;
  OrpheusDB first;
  ASSERT_TRUE(first.Open(dir.path()).ok());
  EXPECT_TRUE(storage::FileExists(dir.path() + "/LOCK"));

  // Second engine on the same directory: clean Unavailable, no crash,
  // and the holder is named in the message.
  OrpheusDB second;
  Status st = second.Open(dir.path());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(StatusCode::kUnavailable, st.code());
  EXPECT_NE(std::string::npos, st.message().find("locked"));
  // The refused engine stays fresh and can open elsewhere.
  ASSERT_TRUE(second.Open(dir.Sub("other")).ok());
}

TEST(Persistence, LockFileReleasedOnClose) {
  TempDir dir;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
  }
  // The LOCK file remains on disk (flock, not existence, is the
  // guard), but the lock itself died with the holder.
  EXPECT_TRUE(storage::FileExists(dir.path() + "/LOCK"));
  OrpheusDB next;
  EXPECT_TRUE(next.Open(dir.path()).ok());
}

TEST(Persistence, RawStorageManagerRespectsLock) {
  TempDir dir;
  OrpheusDB holder;
  ASSERT_TRUE(holder.Open(dir.path()).ok());
  OrpheusDB probe;
  auto second = storage::StorageManager::Open(dir.path(), &probe);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(StatusCode::kUnavailable, second.status().code());
}

// --- Automatic checkpointing ---------------------------------------------

TEST(Persistence, AutoCheckpointTriggersOnWalBytes) {
  TempDir dir;
  EngineRef ref;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    // Tiny byte bound: every logged verb beyond the first handful
    // folds the WAL into a snapshot.
    db.storage()->SetAutoCheckpointPolicy(/*max_wal_bytes=*/256,
                                          /*max_wal_records=*/0);
    CvdOptions options;
    options.primary_key = {"k"};
    ASSERT_TRUE(db.InitCvd("t", SampleRows(6), options, "init").ok());
    for (int i = 0; i < 4; ++i) {
      std::string w = "w" + std::to_string(i);
      ASSERT_TRUE(db.Checkout("t", {1}, w).ok());
      ASSERT_TRUE(db.Commit("t", w, "round").ok());
    }
    EXPECT_TRUE(storage::FileExists(ManifestPath(dir.path())));
    EXPECT_LE(db.storage()->wal_bytes(), 256u + 1024u);
    ref = Capture(&db);
  }
  // Snapshot + residual WAL recover the exact state.
  OrpheusDB recovered;
  ASSERT_TRUE(recovered.Open(dir.path()).ok());
  ExpectEngineEquals(ref, &recovered, "auto-checkpoint recovery");
}

TEST(Persistence, AutoCheckpointTriggersOnRecordCount) {
  TempDir dir;
  OrpheusDB db;
  ASSERT_TRUE(db.Open(dir.path()).ok());
  db.storage()->SetAutoCheckpointPolicy(/*max_wal_bytes=*/0,
                                        /*max_wal_records=*/3);
  CvdOptions options;
  options.primary_key = {"k"};
  ASSERT_TRUE(db.InitCvd("t", SampleRows(4), options, "init").ok());  // 1
  ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());  // not logged
  ASSERT_TRUE(db.Commit("t", "w", "c1").ok());                        // 2
  ASSERT_TRUE(db.Checkout("t", {1}, "w2").ok());
  ASSERT_TRUE(db.Commit("t", "w2", "c2").ok());                       // 3
  EXPECT_EQ(3u, db.storage()->wal_records());
  // A checkout appends nothing, so it cannot trip the policy either.
  ASSERT_TRUE(db.Checkout("t", {1}, "w3").ok());
  EXPECT_FALSE(storage::FileExists(ManifestPath(dir.path())));
  EXPECT_EQ(3u, db.storage()->wal_records());
  ASSERT_TRUE(db.Commit("t", "w3", "c3").ok());  // 4th record: trips
  EXPECT_TRUE(storage::FileExists(ManifestPath(dir.path())));
  EXPECT_EQ(0u, db.storage()->wal_records());
}

TEST(Persistence, AutoCheckpointCountsSurviveReopen) {
  TempDir dir;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    CvdOptions options;
    options.primary_key = {"k"};
    ASSERT_TRUE(db.InitCvd("t", SampleRows(4), options, "init").ok());
    ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
    ASSERT_TRUE(db.Commit("t", "w", "c1").ok());
    EXPECT_EQ(2u, db.storage()->wal_records());
  }
  OrpheusDB db;
  ASSERT_TRUE(db.Open(dir.path()).ok());
  // The reopened writer knows how much live WAL it sits on, so the
  // policy keeps working across restarts.
  EXPECT_EQ(2u, db.storage()->wal_records());
  EXPECT_GT(db.storage()->wal_bytes(), 0u);
  db.storage()->SetAutoCheckpointPolicy(0, 2);
  ASSERT_TRUE(db.Checkout("t", {2}, "w2").ok());
  EXPECT_EQ(2u, db.storage()->wal_records());  // a read: no record
  ASSERT_TRUE(db.Commit("t", "w2", "c2").ok());
  EXPECT_EQ(0u, db.storage()->wal_records());  // tripped and reset
  EXPECT_TRUE(storage::FileExists(ManifestPath(dir.path())));
}

// --- Fault-injected commit-group crash matrix ----------------------------
//
// Group commit batches several records into ONE write() + ONE
// fdatasync, so a crash mid-batch can tear the WAL at any byte of the
// batch buffer. The deterministic fault hooks (io_util.h) let these
// tests fail the batch write at exact byte offsets — and the failed
// sync — instead of hoping a kill lands there. The contract: recovery
// keeps exactly the whole records below the tear, truncates the rest,
// and a poisoned writer refuses to append past the damage.

// Disarms fault injection even when an ASSERT unwinds the test early.
struct FaultGuard {
  ~FaultGuard() { storage::DisarmIoFaults(); }
};

// The 4-record schedule every crash-matrix run replays identically
// against CVD "t" (version 1 is seeded and synced before the batch):
// commit, commit, create user, merging commit, each commit behind its
// (unlogged) checkout. Callers hold a durability scope across it, so
// all four records stay queued. `refs[k]` = in-memory state after k
// records.
void ApplyGroupSchedule(OrpheusDB* db, std::vector<EngineRef>* refs) {
  refs->push_back(Capture(db));
  ASSERT_TRUE(db->Checkout("t", {1}, "a").ok());
  ASSERT_TRUE(db->db()->Execute("UPDATE a SET score = 1.5 WHERE k = 1").ok());
  ASSERT_EQ(2, db->Commit("t", "a", "c1").ValueOrDie());
  refs->push_back(Capture(db));
  ASSERT_TRUE(db->Checkout("t", {1}, "b").ok());
  ASSERT_TRUE(db->db()->Execute("UPDATE b SET score = 2.5 WHERE k = 2").ok());
  ASSERT_EQ(3, db->Commit("t", "b", "c2").ValueOrDie());
  refs->push_back(Capture(db));
  ASSERT_TRUE(db->CreateUser("carol").ok());
  refs->push_back(Capture(db));
  ASSERT_TRUE(db->Checkout("t", {3, 2}, "m").ok());
  ASSERT_EQ(4, db->Commit("t", "m", "merge").ValueOrDie());
  refs->push_back(Capture(db));
}

void SeedForGroupSchedule(OrpheusDB* db) {
  CvdOptions options;
  options.primary_key = {"k"};
  ASSERT_TRUE(db->InitCvd("t", SampleRows(6), options, "init").ok());
}

TEST(Persistence, CommitGroupTornWriteCrashMatrix) {
  for (int threads : {1, 4}) {
    SetExecThreads(threads);
    // Reference run: same schedule, no faults. Yields the per-record
    // state refs and — because the WAL encoding is deterministic — the
    // frame boundaries every matrix run below will reproduce.
    TempDir ref_dir;
    std::vector<EngineRef> refs;
    {
      OrpheusDB db;
      ASSERT_TRUE(db.Open(ref_dir.path()).ok());
      SeedForGroupSchedule(&db);
      {
        storage::DurabilityScope scope(db.storage());
        ApplyGroupSchedule(&db, &refs);
      }
      ASSERT_TRUE(db.storage()->FlushPending().ok());
    }
    ASSERT_EQ(5u, refs.size());
    std::string bytes =
        storage::ReadFileToString(WalPath(ref_dir.path())).ValueOrDie();
    std::vector<size_t> boundaries = FrameBoundaries(bytes);
    ASSERT_EQ(5u, boundaries.size());  // init + the 4 batched records
    // Byte offsets inside the batch buffer (the init frame precedes it
    // in the file but not in the AppendBatch write).
    const size_t batch_start = boundaries[0];
    const int64_t batch_len = static_cast<int64_t>(bytes.size() - batch_start);
    std::vector<int64_t> rel_bounds;
    for (size_t i = 1; i < boundaries.size(); ++i) {
      rel_bounds.push_back(static_cast<int64_t>(boundaries[i] - batch_start));
    }

    // Tear points: around every frame boundary, mid-frame, nothing
    // written, and the full buffer (crash between write and sync).
    std::set<int64_t> cuts = {-1, 0, 1, batch_len};
    int64_t prev = 0;
    for (int64_t b : rel_bounds) {
      cuts.insert(b - 1);
      cuts.insert(b);
      cuts.insert(b + 1);
      cuts.insert(prev + (b - prev) / 2);
      prev = b;
    }

    TempDir matrix_root;
    for (int64_t cut : cuts) {
      if (cut < -1 || cut > batch_len) continue;
      const std::string dir =
          matrix_root.Sub("cut_" + std::to_string(threads) + "_" +
                          std::to_string(cut + 1));
      {
        OrpheusDB db;
        ASSERT_TRUE(db.Open(dir).ok());
        SeedForGroupSchedule(&db);
        std::vector<EngineRef> ignored;
        {
          storage::DurabilityScope scope(db.storage());
          ApplyGroupSchedule(&db, &ignored);
        }
        FaultGuard guard;
        storage::IoFaultPlan plan;
        plan.fail_write_at = 1;  // the batch is the 1st write while armed
        plan.torn_bytes = cut;
        storage::ArmIoFaults(storage::IoFileClass::kWal, plan);
        Status st = db.storage()->FlushPending();
        EXPECT_FALSE(st.ok()) << "cut=" << cut;
        // The poisoned writer refuses to append past the torn tail —
        // records after the damage would be unreadable. The enqueue is
        // accepted; the verb's wait surfaces the latched error.
        EXPECT_FALSE(db.CreateUser("late").ok()) << "cut=" << cut;
      }
      // "Crash": the process state is gone, only the torn file remains.
      size_t survivors = 0;
      for (int64_t b : rel_bounds) {
        if (b <= cut) ++survivors;
      }
      OrpheusDB recovered;
      ASSERT_TRUE(recovered.Open(dir).ok()) << "cut=" << cut;
      ExpectEngineEquals(refs[survivors], &recovered,
                         "threads=" + std::to_string(threads) + " cut=" +
                             std::to_string(cut));
      // The torn tail was truncated away: the WAL ends on the last
      // whole frame, so the next appender starts at a clean boundary.
      int64_t wal_size = storage::FileSize(WalPath(dir)).ValueOrDie();
      int64_t want_size = static_cast<int64_t>(batch_start) +
                          (survivors == 0 ? 0 : rel_bounds[survivors - 1]);
      EXPECT_EQ(want_size, wal_size) << "cut=" << cut;
    }
  }
  SetExecThreads(1);
}

TEST(Persistence, CommitGroupSyncFailurePoisonsWriter) {
  TempDir dir;
  std::vector<EngineRef> refs;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    SeedForGroupSchedule(&db);
    {
      storage::DurabilityScope scope(db.storage());
      ApplyGroupSchedule(&db, &refs);
    }
    FaultGuard guard;
    storage::IoFaultPlan plan;
    plan.fail_sync_at = 1;  // the batch write lands, its fdatasync fails
    storage::ArmIoFaults(storage::IoFileClass::kWal, plan);
    Status st = db.storage()->FlushPending();
    EXPECT_FALSE(st.ok());
    storage::DisarmIoFaults();
    // A failed sync poisons the writer: neither a later verb nor a
    // checkpoint may run on top of records of unknown durability.
    EXPECT_FALSE(db.CreateUser("late").ok());
    EXPECT_FALSE(db.Checkpoint().ok());
  }
  // The write() itself completed before the sync failed, so the frames
  // are in the file (durability was never promised — WaitDurable
  // errored — but recovery of what survives must still be exact).
  OrpheusDB recovered;
  ASSERT_TRUE(recovered.Open(dir.path()).ok());
  ExpectEngineEquals(refs.back(), &recovered, "after failed sync");
}

// --- Segmented checkpoints (storage format v2) --------------------------
//
// The v2 layout splits the old monolithic snapshot into one immutable
// segment file per table plus a CRC-checked MANIFEST whose atomic
// replace is the only commit point. These suites pin down the three
// promises that buys: incrementality (clean tables are never
// rewritten), crash-atomicity (a kill anywhere inside Checkpoint()
// recovers to exactly the pre- or post-checkpoint state, never a
// hybrid), and fail-clean corruption handling (any flipped byte turns
// Open into a Status that names the damaged file).

std::pair<int64_t, int64_t> FileMtime(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(0, ::stat(path.c_str(), &st)) << path;
  return {static_cast<int64_t>(st.st_mtim.tv_sec),
          static_cast<int64_t>(st.st_mtim.tv_nsec)};
}

void FlipByteInFile(const std::string& path, size_t pos) {
  std::string bytes = storage::ReadFileToString(path).ValueOrDie();
  ASSERT_LT(pos, bytes.size()) << path;
  bytes[pos] = static_cast<char>(bytes[pos] ^ 0x01);
  ASSERT_TRUE(storage::WriteFileAtomic(path, bytes).ok());
}

std::string SegPath(const std::string& dir, const std::string& file) {
  return storage::StorageManager::SegmentPath(dir, file);
}

// The headline acceptance test: with eight tables and one of them
// dirty, a checkpoint rewrites exactly that table's segment plus the
// manifest. Verified three independent ways — the stats counters, the
// io_util write counter, and the on-disk identity (file name, CRC,
// mtime) of the seven untouched segments.
TEST(SegmentedCheckpoint, OneDirtyTableOfEightRewritesOneSegment) {
  TempDir dir;
  OrpheusDB db;
  ASSERT_TRUE(db.Open(dir.path()).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db.db()
                    ->AdoptTable("t" + std::to_string(i),
                                 SampleRows(4, i * 10), {"k"})
                    .ok());
  }
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_EQ(8u, db.storage()->last_checkpoint_stats().segments_written);
  EXPECT_EQ(0u, db.storage()->last_checkpoint_stats().segments_reused);
  const storage::Manifest full = db.storage()->manifest();
  ASSERT_EQ(8u, full.segments.size());

  std::map<std::string, storage::ManifestSegment> before;
  std::map<std::string, std::pair<int64_t, int64_t>> mtimes;
  for (const storage::ManifestSegment& seg : full.segments) {
    before[seg.table] = seg;
    mtimes[seg.table] = FileMtime(SegPath(dir.path(), seg.file));
  }

  ASSERT_TRUE(db.db()->Execute("UPDATE t3 SET score = 99.5 WHERE k = 31").ok());
  const uint64_t seg_writes =
      storage::IoWritesIssued(storage::IoFileClass::kSegment);
  ASSERT_TRUE(db.Checkpoint().ok());
  const storage::StorageManager::CheckpointStats& stats =
      db.storage()->last_checkpoint_stats();
  EXPECT_EQ(1u, stats.segments_written);  // only t3
  EXPECT_EQ(7u, stats.segments_reused);
  EXPECT_EQ(1u, stats.segments_deleted);  // t3's superseded segment
  EXPECT_EQ(1u, storage::IoWritesIssued(storage::IoFileClass::kSegment) -
                    seg_writes);

  const storage::Manifest after = db.storage()->manifest();
  ASSERT_EQ(8u, after.segments.size());
  for (const storage::ManifestSegment& seg : after.segments) {
    const storage::ManifestSegment& old = before.at(seg.table);
    if (seg.table == "t3") {
      EXPECT_NE(old.file, seg.file);  // fresh name — names are never reused
    } else {
      EXPECT_EQ(old.file, seg.file);
      EXPECT_EQ(old.crc, seg.crc);
      EXPECT_EQ(mtimes.at(seg.table), FileMtime(SegPath(dir.path(), seg.file)))
          << seg.table << " was rewritten despite being clean";
    }
  }
  EXPECT_FALSE(storage::FileExists(SegPath(dir.path(), before.at("t3").file)));

  // The full-rewrite reference mode really does rewrite everything.
  db.storage()->set_incremental_checkpoint(false);
  ASSERT_TRUE(db.db()->Execute("UPDATE t3 SET score = 1.0 WHERE k = 31").ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_EQ(8u, db.storage()->last_checkpoint_stats().segments_written);
  EXPECT_EQ(0u, db.storage()->last_checkpoint_stats().segments_reused);
}

struct CheckpointFaultPlan {
  storage::IoFileClass cls;
  storage::IoFaultPlan fault;
  std::string what;
};

// Every syscall the checkpoint protocol issues, as injectable kill
// points: each segment write()/fsync, the manifest tmp-write, its
// sync, the commit rename, and each post-commit orphan delete.
std::vector<CheckpointFaultPlan> CheckpointKillPoints(int max_segment_ops,
                                                      int max_deletes) {
  std::vector<CheckpointFaultPlan> plans;
  auto add = [&plans](storage::IoFileClass cls, storage::IoFaultPlan fault,
                      std::string what) {
    plans.push_back({cls, fault, std::move(what)});
  };
  for (int w = 1; w <= max_segment_ops; ++w) {
    for (int64_t torn : {int64_t{-1}, int64_t{0}, int64_t{64}}) {
      storage::IoFaultPlan p;
      p.fail_write_at = w;
      p.torn_bytes = torn;
      add(storage::IoFileClass::kSegment, p,
          "segment write #" + std::to_string(w) + " torn at " +
              std::to_string(torn));
    }
    storage::IoFaultPlan s;
    s.fail_sync_at = w;
    add(storage::IoFileClass::kSegment, s,
        "segment sync #" + std::to_string(w));
  }
  for (int64_t torn : {int64_t{-1}, int64_t{0}, int64_t{64}}) {
    storage::IoFaultPlan p;
    p.fail_write_at = 1;
    p.torn_bytes = torn;
    add(storage::IoFileClass::kManifest, p,
        "manifest write torn at " + std::to_string(torn));
  }
  {
    storage::IoFaultPlan p;
    p.fail_sync_at = 1;
    add(storage::IoFileClass::kManifest, p, "manifest sync");
  }
  {
    storage::IoFaultPlan p;
    p.fail_rename_at = 1;
    add(storage::IoFileClass::kManifest, p, "manifest rename (commit point)");
  }
  for (int d = 1; d <= max_deletes; ++d) {
    storage::IoFaultPlan p;
    p.fail_delete_at = d;
    add(storage::IoFileClass::kSegment, p,
        "post-commit orphan delete #" + std::to_string(d));
  }
  return plans;
}

// Crash matrix over WAL-logged mutations: the checkout/commit pair
// being folded also lives in the WAL, so no matter where the
// checkpoint dies, recovery must reproduce the live pre-crash state —
// before the manifest rename via old manifest + WAL replay, after it
// via the new manifest + the LSN watermark skipping replayed records.
TEST(SegmentedCheckpoint, CheckpointCrashMatrixRecoversExactState) {
  const std::vector<CheckpointFaultPlan> plans = CheckpointKillPoints(4, 2);
  for (int threads : {1, 4}) {
    SetExecThreads(threads);
    for (const CheckpointFaultPlan& plan : plans) {
      SCOPED_TRACE(plan.what + " threads=" + std::to_string(threads));
      TempDir dir;
      EngineRef ref;
      {
        OrpheusDB db;
        ASSERT_TRUE(db.Open(dir.path()).ok());
        CvdOptions options;
        options.primary_key = {"k"};
        ASSERT_TRUE(db.InitCvd("t", SampleRows(5), options, "init").ok());
        ASSERT_TRUE(db.Checkout("t", {1}, "w").ok());
        ASSERT_EQ(2, db.Commit("t", "w", "v2").ValueOrDie());
        ASSERT_TRUE(db.Checkpoint().ok());  // baseline: everything clean
        ASSERT_TRUE(db.Checkout("t", {2}, "x").ok());
        ASSERT_EQ(3, db.Commit("t", "x", "v3").ValueOrDie());
        ref = Capture(&db);
        FaultGuard guard;
        storage::ArmIoFaults(plan.cls, plan.fault);
        Status st = db.Checkpoint();
        storage::DisarmIoFaults();
        // A plan indexing past the syscalls actually issued never
        // fires and the checkpoint simply succeeds; recovery must
        // land on the same state either way. Manifest plans always
        // fire — the manifest is written exactly once.
        if (plan.cls == storage::IoFileClass::kManifest) {
          EXPECT_FALSE(st.ok());
        }
      }  // engine dropped mid-protocol: the crash
      {
        OrpheusDB recovered;
        ASSERT_TRUE(recovered.Open(dir.path()).ok());
        ExpectEngineEquals(ref, &recovered, "recovered: " + plan.what);
        // The survivor directory stays fully serviceable.
        ASSERT_TRUE(recovered.Checkpoint().ok());
      }
      OrpheusDB again;
      ASSERT_TRUE(again.Open(dir.path()).ok());
      ExpectEngineEquals(ref, &again, "re-recovered: " + plan.what);
    }
  }
  SetExecThreads(1);
}

// Crash matrix over raw catalog mutations, which are NOT WAL-logged
// (durable only at the next checkpoint). A kill before the manifest
// rename must recover the exact pre-checkpoint state; a kill after it
// (orphan deletes) the exact post-checkpoint state. Both dirty tables
// move together or not at all — never a hybrid.
TEST(SegmentedCheckpoint, CrashLandsOnPreOrPostStateNeverHybrid) {
  const std::vector<CheckpointFaultPlan> plans = CheckpointKillPoints(2, 2);
  for (const CheckpointFaultPlan& plan : plans) {
    SCOPED_TRACE(plan.what);
    const bool post_commit = plan.fault.fail_delete_at > 0;
    TempDir dir;
    EngineRef pre, post;
    {
      OrpheusDB db;
      ASSERT_TRUE(db.Open(dir.path()).ok());
      for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(db.db()
                        ->AdoptTable("t" + std::to_string(i),
                                     SampleRows(3, i * 10), {"k"})
                        .ok());
      }
      ASSERT_TRUE(db.Checkpoint().ok());
      pre = Capture(&db);
      ASSERT_TRUE(
          db.db()->Execute("UPDATE t1 SET name = 'dirty' WHERE k = 10").ok());
      ASSERT_TRUE(
          db.db()->Execute("UPDATE t2 SET score = 0.5 WHERE k = 20").ok());
      post = Capture(&db);
      FaultGuard guard;
      storage::ArmIoFaults(plan.cls, plan.fault);
      Status st = db.Checkpoint();
      storage::DisarmIoFaults();
      // Two dirty tables → two segment writes/syncs and two orphan
      // deletes, so every plan in this matrix fires.
      ASSERT_FALSE(st.ok());
    }
    OrpheusDB recovered;
    ASSERT_TRUE(recovered.Open(dir.path()).ok());
    ExpectEngineEquals(post_commit ? post : pre, &recovered,
                       std::string("recovered (expected ") +
                           (post_commit ? "post" : "pre") + "): " + plan.what);
  }
}

// Corruption sweep: a single flipped byte anywhere in any segment or
// in the manifest — header, body, or stored CRC — must turn Open into
// a clean error that names the damaged file. A missing referenced
// segment likewise; an orphaned junk segment is swept silently.
TEST(SegmentedCheckpoint, CorruptionSweepFailsCleanNamingTheFile) {
  TempDir base;
  EngineRef ref;
  {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(base.path()).ok());
    CvdOptions options;
    options.primary_key = {"k"};
    ASSERT_TRUE(db.InitCvd("a", SampleRows(4), options, "init").ok());
    ASSERT_TRUE(db.InitCvd("b", SampleRows(3, 50), options, "init").ok());
    ASSERT_TRUE(db.Checkout("a", {1}, "w").ok());
    ASSERT_EQ(2, db.Commit("a", "w", "v2").ValueOrDie());
    ASSERT_TRUE(db.Checkpoint().ok());
    ref = Capture(&db);
  }
  const std::vector<std::string> names =
      storage::ListDir(SegmentsDir(base.path())).ValueOrDie();
  ASSERT_GE(names.size(), 2u);
  TempDir clones;
  int id = 0;

  for (const std::string& name : names) {
    const size_t size =
        storage::FileSize(SegmentsDir(base.path()) + "/" + name).ValueOrDie();
    for (size_t pos : {size_t{0}, size / 2, size - 1}) {
      SCOPED_TRACE(name + " byte " + std::to_string(pos));
      const std::string clone = clones.Sub("seg" + std::to_string(id++));
      CloneDbDir(base.path(), clone);
      FlipByteInFile(SegmentsDir(clone) + "/" + name, pos);
      OrpheusDB db;
      Status st = db.Open(clone);
      ASSERT_FALSE(st.ok());
      EXPECT_NE(std::string::npos, st.message().find(name))
          << "error does not name the corrupt file: " << st.message();
    }
  }

  // Manifest positions: magic (0), format version (8), body length
  // (12), stored CRC (20), body middle, last body byte.
  const size_t msize =
      storage::FileSize(ManifestPath(base.path())).ValueOrDie();
  for (size_t pos : {size_t{0}, size_t{8}, size_t{12}, size_t{20},
                     size_t{24} + (msize - 24) / 2, msize - 1}) {
    SCOPED_TRACE("MANIFEST byte " + std::to_string(pos));
    const std::string clone = clones.Sub("man" + std::to_string(id++));
    CloneDbDir(base.path(), clone);
    FlipByteInFile(ManifestPath(clone), pos);
    OrpheusDB db;
    Status st = db.Open(clone);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(std::string::npos, st.message().find("MANIFEST"))
        << "error does not name the manifest: " << st.message();
    if (pos == 8) {
      EXPECT_NE(std::string::npos, st.message().find("version"))
          << st.message();
    } else if (pos == 24 + (msize - 24) / 2) {
      EXPECT_NE(std::string::npos, st.message().find("checksum"))
          << st.message();
    }
  }

  {
    SCOPED_TRACE("missing segment " + names[0]);
    const std::string clone = clones.Sub("missing");
    CloneDbDir(base.path(), clone);
    ASSERT_TRUE(
        storage::DeleteFileChecked(SegmentsDir(clone) + "/" + names[0]).ok());
    OrpheusDB db;
    Status st = db.Open(clone);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(std::string::npos, st.message().find(names[0]))
        << "error does not name the missing file: " << st.message();
  }

  {
    SCOPED_TRACE("orphaned junk segment");
    const std::string clone = clones.Sub("orphan");
    CloneDbDir(base.path(), clone);
    const std::string junk = SegmentsDir(clone) + "/seg-zzzzzzzz.orps";
    ASSERT_TRUE(storage::WriteFileAtomic(junk, "not a segment").ok());
    OrpheusDB db;
    ASSERT_TRUE(db.Open(clone).ok());
    ExpectEngineEquals(ref, &db, "after orphan sweep");
    EXPECT_FALSE(storage::FileExists(junk));  // swept at recovery
  }
}

// --- Export (`save`): a full checkpoint into a fresh directory --------

// The durable files of a database directory, for "left untouched"
// checks ("<absent>" marks a missing file).
std::pair<std::string, std::string> DurableBytes(const std::string& dir) {
  auto read = [](const std::string& path) {
    return storage::FileExists(path)
               ? storage::ReadFileToString(path).ValueOrDie()
               : std::string("<absent>");
  };
  return {read(ManifestPath(dir)), read(WalPath(dir))};
}

// Export refuses any directory that already holds a database — the
// live one (under any spelling), a closed checkpointed one, a closed
// WAL-only one — and leaves its MANIFEST and WAL bytes untouched.
TEST(Export, RefusesDirectoriesThatHoldADatabase) {
  TempDir root;
  CvdOptions options;
  options.primary_key = {"k"};
  OrpheusDB source;
  ASSERT_TRUE(source.InitCvd("u", SampleRows(4, 100), options, "init").ok());

  // The open directory and its ./ alias: the live engine holds LOCK.
  const std::string live_dir = root.Sub("live");
  {
    OrpheusDB live;
    ASSERT_TRUE(live.Open(live_dir).ok());
    ASSERT_TRUE(live.InitCvd("t", SampleRows(3), options, "init").ok());
    const auto before = DurableBytes(live_dir);
    for (const std::string& target :
         {live_dir, root.path() + "/./live"}) {
      SCOPED_TRACE(target);
      EXPECT_FALSE(live.SaveSnapshot(target).ok());
      EXPECT_FALSE(source.SaveSnapshot(target).ok());
      EXPECT_EQ(before, DurableBytes(live_dir));
    }
    // A fresh directory, or one nested inside the live one, still works.
    EXPECT_TRUE(live.SaveSnapshot(root.Sub("elsewhere")).ok());
    EXPECT_TRUE(live.SaveSnapshot(live_dir + "/nested").ok());
    EXPECT_EQ(before, DurableBytes(live_dir));
  }

  // A closed, checkpointed directory (MANIFEST) and a closed WAL-only
  // one: the refusal names the file, and reopening shows only "t".
  const std::string checkpointed = root.Sub("checkpointed");
  const std::string wal_only = root.Sub("wal_only");
  for (const std::string& dir : {checkpointed, wal_only}) {
    OrpheusDB db;
    ASSERT_TRUE(db.Open(dir).ok());
    ASSERT_TRUE(db.InitCvd("t", SampleRows(3), options, "init").ok());
    if (dir == checkpointed) {
      ASSERT_TRUE(db.Checkpoint().ok());
    }
  }
  ASSERT_FALSE(storage::FileExists(ManifestPath(wal_only)));
  for (const auto& [dir, file] :
       {std::pair{checkpointed, ManifestPath(checkpointed)},
        std::pair{wal_only, WalPath(wal_only)}}) {
    SCOPED_TRACE(dir);
    const auto before = DurableBytes(dir);
    Status st = source.SaveSnapshot(dir);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(StatusCode::kInvalidArgument, st.code());
    EXPECT_NE(std::string::npos, st.message().find(file)) << st.message();
    EXPECT_EQ(before, DurableBytes(dir));
    OrpheusDB reopened;
    ASSERT_TRUE(reopened.Open(dir).ok());
    EXPECT_EQ(std::vector<std::string>{"t"}, reopened.ListCvds());
  }
}

// A crash at the export's commit point (the MANIFEST rename) leaves a
// directory that holds no database; a retry into it succeeds, opens to
// the source's exact state, and sweeps the failed attempt's segments.
TEST(Export, FailedManifestRenameThenRetrySucceeds) {
  TempDir root;
  const std::string target = root.Sub("export");
  CvdOptions options;
  options.primary_key = {"k"};
  OrpheusDB source;
  ASSERT_TRUE(source.InitCvd("a", SampleRows(4), options, "init").ok());
  ASSERT_TRUE(source.InitCvd("b", SampleRows(3, 50), options, "init").ok());
  ASSERT_TRUE(source.Checkout("a", {1}, "w").ok());
  ASSERT_EQ(2, source.Commit("a", "w", "v2").ValueOrDie());
  {
    FaultGuard guard;
    storage::IoFaultPlan plan;
    plan.fail_rename_at = 1;
    storage::ArmIoFaults(storage::IoFileClass::kManifest, plan);
    EXPECT_FALSE(source.SaveSnapshot(target).ok());
  }
  EXPECT_FALSE(storage::FileExists(ManifestPath(target)));
  const std::vector<std::string> failed_segments =
      storage::ListDir(SegmentsDir(target)).ValueOrDie();
  ASSERT_FALSE(failed_segments.empty());

  // Fewer tables on the retry, so some of the failed attempt's segment
  // names are not rewritten: they must be swept, not left behind.
  ASSERT_TRUE(source.DropCvd("b").ok());
  ASSERT_TRUE(source.SaveSnapshot(target).ok());
  const EngineRef ref = Capture(&source);
  OrpheusDB exported;
  ASSERT_TRUE(exported.Open(target).ok());
  ExpectEngineEquals(ref, &exported, "retried export");
  std::vector<std::string> live;
  for (const auto& seg : exported.storage()->manifest().segments) {
    live.push_back(seg.file);
  }
  std::sort(live.begin(), live.end());
  EXPECT_EQ(live, storage::ListDir(SegmentsDir(target)).ValueOrDie());
  EXPECT_LT(live.size(), failed_segments.size());
}

// Storage format v1 (one snapshot.orph, no MANIFEST) is no longer read.
// Such a directory must fail Open naming the file — never open as an
// empty database — and must not take an export either.
TEST(Export, V1OnlyDirectoryFailsOpenNamingTheFile) {
  TempDir dir;
  const std::string v1 = dir.Sub("snapshot.orph");
  ASSERT_TRUE(storage::WriteFileAtomic(v1, "ORPHSNAP v1 image").ok());
  OrpheusDB db;
  Status st = db.Open(dir.path());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, st.code());
  EXPECT_NE(std::string::npos, st.message().find(v1)) << st.message();
  EXPECT_FALSE(db.durable());

  OrpheusDB source;
  CvdOptions options;
  ASSERT_TRUE(source.InitCvd("t", SampleRows(3), options, "init").ok());
  Status save = source.SaveSnapshot(dir.path());
  ASSERT_FALSE(save.ok());
  EXPECT_NE(std::string::npos, save.message().find(v1)) << save.message();
  EXPECT_FALSE(storage::FileExists(ManifestPath(dir.path())));
}

// Property test (the concurrency_test oracle idiom): two engines fed
// an identical randomized schedule of checkouts, staged edits,
// commits, discards, checkpoints, and crash/reopen rounds must encode
// to the same engine image (SnapshotCodec::Encode). Engine A
// checkpoints incrementally, engine B is pinned to full rewrites — so
// any dirty table the epoch tracking misses shows up as a byte diff.
TEST(SegmentedCheckpoint, PropertyIncrementalMatchesFullRewrite) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetExecThreads(threads);
    TempDir dir_a;
    TempDir dir_b;
    auto a = std::make_unique<OrpheusDB>();
    auto b = std::make_unique<OrpheusDB>();
    ASSERT_TRUE(a->Open(dir_a.path()).ok());
    ASSERT_TRUE(b->Open(dir_b.path()).ok());
    b->storage()->set_incremental_checkpoint(false);
    CvdOptions options;
    options.primary_key = {"k"};
    for (OrpheusDB* e : {a.get(), b.get()}) {
      ASSERT_TRUE(e->InitCvd("c0", SampleRows(6), options, "init").ok());
      ASSERT_TRUE(e->InitCvd("c1", SampleRows(4, 100), options, "init").ok());
    }
    std::mt19937 rng(20260808u + static_cast<unsigned>(threads));
    std::vector<std::pair<std::string, std::string>> staged;  // (cvd, table)
    int serial = 0;
    for (int round = 0; round < 60; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const int op = static_cast<int>(rng() % 10);
      if (op < 4) {  // checkout a random version into a fresh table
        const std::string cvd = (rng() % 2 == 0) ? "c0" : "c1";
        const VersionId latest = a->GetCvd(cvd).value()->latest_version();
        const VersionId v = 1 + static_cast<VersionId>(rng() % latest);
        const std::string t = "s" + std::to_string(serial++);
        Status sa = a->Checkout(cvd, {v}, t);
        Status sb = b->Checkout(cvd, {v}, t);
        ASSERT_EQ(sa.ok(), sb.ok());
        if (sa.ok()) staged.emplace_back(cvd, t);
      } else if (op < 7) {  // edit + commit a random staged table
        if (staged.empty()) continue;
        const size_t i = rng() % staged.size();
        const auto [cvd, t] = staged[i];
        const std::string sql = "UPDATE " + t + " SET score = " +
                                std::to_string(round) + ".5 WHERE k >= 0";
        ASSERT_TRUE(a->db()->Execute(sql).ok());
        ASSERT_TRUE(b->db()->Execute(sql).ok());
        auto ra = a->Commit(cvd, t, "m" + std::to_string(round));
        auto rb = b->Commit(cvd, t, "m" + std::to_string(round));
        ASSERT_EQ(ra.ok(), rb.ok());
        if (ra.ok()) {
          const VersionId va = ra.value();
          const VersionId vb = rb.value();
          ASSERT_EQ(va, vb);
        }
        staged.erase(staged.begin() + static_cast<ptrdiff_t>(i));
      } else if (op == 7) {  // discard a random staged table
        if (staged.empty()) continue;
        const size_t i = rng() % staged.size();
        const auto [cvd, t] = staged[i];
        ASSERT_EQ(a->DiscardStaged(cvd, t).ok(), b->DiscardStaged(cvd, t).ok());
        staged.erase(staged.begin() + static_cast<ptrdiff_t>(i));
      } else if (op == 8) {  // checkpoint both
        ASSERT_TRUE(a->Checkpoint().ok());
        ASSERT_TRUE(b->Checkpoint().ok());
      } else {  // crash both and recover
        a = std::make_unique<OrpheusDB>();
        b = std::make_unique<OrpheusDB>();
        ASSERT_TRUE(a->Open(dir_a.path()).ok());
        ASSERT_TRUE(b->Open(dir_b.path()).ok());
        b->storage()->set_incremental_checkpoint(false);
        // Checkouts are not logged: only those the last checkpoint
        // captured survive, in both engines alike.
        ASSERT_EQ(StagedNames(a.get()), StagedNames(b.get()));
        const std::set<std::string> survivors = StagedNames(a.get());
        staged.erase(std::remove_if(staged.begin(), staged.end(),
                                    [&](const auto& entry) {
                                      return survivors.count(entry.second) == 0;
                                    }),
                     staged.end());
      }
      if (round % 10 == 9) {
        ASSERT_EQ(storage::SnapshotCodec::Encode(*a, 0),
                  storage::SnapshotCodec::Encode(*b, 0));
      }
    }
    EXPECT_EQ(storage::SnapshotCodec::Encode(*a, 0),
              storage::SnapshotCodec::Encode(*b, 0));
    EngineRef ref = Capture(a.get());
    ExpectEngineEquals(ref, b.get(), "final A vs B");
  }
  SetExecThreads(1);
}

}  // namespace
}  // namespace orpheus
