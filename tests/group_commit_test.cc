// Group-commit tests: the WAL write path under concurrent sessions.
//
// Three layers of assurance, mirroring the durability contract in
// docs/PERSISTENCE.md:
//
//  * Deterministic mechanics against a bare StorageManager — N
//    records enqueued under a durability scope become ONE AppendBatch
//    with consecutive LSNs and exactly one fdatasync; a direct verb
//    (no scope) is on disk, behind exactly one fdatasync, when it
//    returns.
//
//  * Stress over real server TCP — K sessions × M commits against a
//    durable engine (with an injected fdatasync delay so commit groups
//    genuinely form): every commit lands, WAL LSNs are gapless, the
//    whole run costs fewer syncs than it wrote records, and a fresh
//    engine recovered from the WAL is bit-identical to the live one.
//    Run at --threads {1, 4} like the other concurrency suites.
//
//  * EngineApi semantics — every statement is group-committed (a
//    lone one is a group of one), per-session last_durable_lsn is
//    monotonic, and the auto-checkpoint policy still fires when the
//    growth happened through queued records.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/engine_api.h"
#include "core/orpheus.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/io_util.h"
#include "storage/snapshot.h"
#include "storage/storage_manager.h"
#include "storage/wal.h"

namespace orpheus {
namespace {

using core::Cvd;
using core::CvdOptions;
using core::EngineApi;
using core::OrpheusDB;
using core::SessionContext;
using server::Client;
using server::Server;
using server::ServerOptions;

class TempDir {
 public:
  TempDir() : path_(storage::MakeTempDir("orpheus_gc_").ValueOrDie()) {}
  ~TempDir() { (void)storage::RemoveDirRecursive(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Disarms fault injection even when an ASSERT unwinds the test early.
struct FaultGuard {
  ~FaultGuard() { storage::DisarmIoFaults(); }
};

// k INT (pk), score DOUBLE.
rel::Chunk MakeRows(int n) {
  rel::Schema schema;
  schema.AddColumn("k", rel::DataType::kInt64);
  schema.AddColumn("score", rel::DataType::kDouble);
  rel::Chunk rows(schema);
  for (int i = 0; i < n; ++i) {
    rows.mutable_column(0).AppendInt(i);
    rows.mutable_column(1).AppendDouble(0.5 * i);
  }
  return rows;
}

void Seed(EngineApi* api, const std::string& name, int n) {
  CvdOptions options;
  options.primary_key = {"k"};
  ASSERT_TRUE(api->orpheus()->InitCvd(name, MakeRows(n), options, "init").ok());
}

std::string MustExecute(EngineApi* api, SessionContext* session,
                        const std::string& line) {
  auto result = api->Execute(session, line);
  EXPECT_TRUE(result.ok()) << line << ": " << result.status().ToString();
  return result.ok() ? result.value() : std::string();
}

std::string MustExecute(Client* client, const std::string& line) {
  auto result = client->Execute(line);
  EXPECT_TRUE(result.ok()) << line << ": " << result.status().ToString();
  return result.ok() ? result.value() : std::string();
}

// Parses the directory's WAL and asserts its LSNs are gapless from 1.
void ExpectGaplessWal(const std::string& dir, size_t want_records) {
  std::string bytes =
      storage::ReadFileToString(storage::StorageManager::WalPath(dir))
          .ValueOrDie();
  size_t valid = 0;
  std::vector<storage::WalRecord> records = storage::ParseWal(bytes, 0, &valid);
  EXPECT_EQ(bytes.size(), valid) << "WAL has a torn tail after a clean run";
  ASSERT_EQ(want_records, records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(i + 1, records[i].lsn) << "LSN gap at record " << i;
  }
}

// --- Deterministic mechanics against a bare StorageManager ---------------

TEST(GroupCommit, BatchedEnqueuesCostOneSync) {
  TempDir dir;
  OrpheusDB db;
  ASSERT_TRUE(db.Open(dir.path()).ok());
  storage::StorageManager* sm = db.storage();
  uint64_t syncs_before = sm->wal_syncs();

  // Three verbs enqueue three records into the scope; none of them
  // syncs anything.
  storage::DurabilityScope scope(sm);
  ASSERT_TRUE(db.CreateUser("u1").ok());
  ASSERT_TRUE(db.CreateUser("u2").ok());
  ASSERT_TRUE(db.CreateUser("u3").ok());
  EXPECT_EQ(syncs_before, sm->wal_syncs());

  std::vector<storage::AppendTicket> tickets = scope.Close();
  ASSERT_EQ(3u, tickets.size());
  // A second close hands over nothing: the tickets moved out.
  EXPECT_TRUE(scope.Close().empty());

  ASSERT_TRUE(sm->WaitDurable(tickets).ok());
  EXPECT_EQ(syncs_before + 1, sm->wal_syncs())
      << "3 grouped records must cost exactly 1 fdatasync";
  for (size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_TRUE(tickets[i]->done);
    EXPECT_TRUE(tickets[i]->status.ok());
    if (i > 0) {
      EXPECT_EQ(tickets[i - 1]->lsn + 1, tickets[i]->lsn)
          << "batch LSNs must be consecutive in enqueue order";
    }
  }
  // Waiting again on completed tickets is a no-op.
  EXPECT_TRUE(sm->WaitDurable(tickets).ok());
  ExpectGaplessWal(dir.path(), 3);
}

TEST(GroupCommit, DirectVerbIsDurableOnReturn) {
  TempDir dir;
  OrpheusDB db;
  ASSERT_TRUE(db.Open(dir.path()).ok());
  storage::StorageManager* sm = db.storage();

  // No scope, no flush, no destructor: each verb's record must be in
  // the on-disk WAL, behind exactly one fdatasync, when it returns.
  for (int i = 1; i <= 3; ++i) {
    const std::string user = "u" + std::to_string(i);
    const uint64_t syncs_before = sm->wal_syncs();
    ASSERT_TRUE(db.CreateUser(user).ok());
    EXPECT_EQ(syncs_before + 1, sm->wal_syncs()) << user;
    // Nothing is left queued: the writer wrote every record logged.
    EXPECT_EQ(static_cast<uint64_t>(i), sm->wal_records()) << user;
    std::string bytes =
        storage::ReadFileToString(storage::StorageManager::WalPath(dir.path()))
            .ValueOrDie();
    size_t valid = 0;
    std::vector<storage::WalRecord> records =
        storage::ParseWal(bytes, 0, &valid);
    EXPECT_EQ(bytes.size(), valid) << user;
    ASSERT_EQ(static_cast<size_t>(i), records.size()) << user;
    EXPECT_EQ(storage::WalRecordType::kCreateUser, records.back().type);
    EXPECT_EQ(static_cast<uint64_t>(i), records.back().lsn);
  }
}

// --- EngineApi semantics -------------------------------------------------

TEST(GroupCommit, SessionDurableLsnIsMonotonic) {
  TempDir dir;
  EngineApi api;
  ASSERT_TRUE(api.orpheus()->Open(dir.path()).ok());
  Seed(&api, "c", 4);

  auto session = api.NewSession();
  EXPECT_EQ(0u, session->last_durable_lsn());
  uint64_t prev = 0;
  for (int i = 0; i < 3; ++i) {
    std::string w = "w" + std::to_string(i);
    MustExecute(&api, session.get(), "checkout c -v 1 -t " + w);
    // A checkout is a read: it logs nothing and waits for nothing.
    uint64_t after_checkout = session->last_durable_lsn();
    EXPECT_EQ(prev, after_checkout);
    MustExecute(&api, session.get(), "commit -t " + w + " -m x");
    uint64_t after_commit = session->last_durable_lsn();
    EXPECT_GT(after_commit, after_checkout);
    prev = after_commit;
  }
  // The bookmark tracks the WAL head this session has waited out.
  EXPECT_EQ(api.orpheus()->storage()->next_lsn() - 1, prev);
}

TEST(GroupCommit, AutoCheckpointStillFiresOnQueuedGrowth) {
  TempDir dir;
  std::string live_blob;
  {
    EngineApi api;
    ASSERT_TRUE(api.orpheus()->Open(dir.path()).ok());
    Seed(&api, "c", 4);
    // Bound the WAL at 3 records: the policy must count queued (not
    // yet written) records too, flush them, and fold the log into a
    // snapshot from inside the group-commit path.
    api.orpheus()->storage()->SetAutoCheckpointPolicy(0, 3);
    auto session = api.NewSession();
    for (int i = 0; i < 4; ++i) {
      std::string w = "w" + std::to_string(i);
      MustExecute(&api, session.get(), "checkout c -v 1 -t " + w);
      MustExecute(&api, session.get(), "commit -t " + w + " -m x");
    }
    EXPECT_TRUE(
        storage::FileExists(storage::StorageManager::ManifestPath(dir.path())));
    EXPECT_LE(api.orpheus()->storage()->wal_records(), 3u);
    live_blob = storage::SnapshotCodec::Encode(*api.orpheus(), 0);
  }
  OrpheusDB recovered;
  ASSERT_TRUE(recovered.Open(dir.path()).ok());
  EXPECT_EQ(live_blob, storage::SnapshotCodec::Encode(recovered, 0));
}

// --- Stress over real server TCP ----------------------------------------

// K sessions × M commits over TCP against a durable engine. An
// injected fdatasync delay holds each group leader in "sync" long
// enough for concurrent committers to pile into the next group, so the
// run demonstrably batches: total syncs < total records. Afterwards,
// WAL replay into a fresh engine must reproduce the live state
// bit-identically and the LSN sequence must be gapless.
void RunTcpStress(int exec_threads) {
  SetExecThreads(exec_threads);
  constexpr int kSessions = 4;
  constexpr int kCommits = 5;
  TempDir dir;
  std::string live_blob;
  size_t total_records = 0;
  {
    EngineApi api;
    ASSERT_TRUE(api.orpheus()->Open(dir.path()).ok());
    Seed(&api, "c", 6);
    storage::StorageManager* sm = api.orpheus()->storage();
    uint64_t syncs_before = sm->wal_syncs();
    uint64_t records_before = sm->wal_records();

    FaultGuard guard;
    storage::IoFaultPlan plan;
    plan.sync_delay_ms = 15;  // no failures — just group formation
    storage::ArmIoFaults(storage::IoFileClass::kWal, plan);

    ServerOptions options;
    options.port = 0;
    options.workers = kSessions;
    Server server(&api, options);
    ASSERT_TRUE(server.Start().ok());

    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    threads.reserve(kSessions);
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] {
        Client client;
        if (!client.Connect("127.0.0.1", server.port()).ok()) {
          failures.fetch_add(1);
          return;
        }
        for (int i = 0; i < kCommits; ++i) {
          std::string w = "t" + std::to_string(s) + "_" + std::to_string(i);
          MustExecute(&client, "checkout c -v 1 -t " + w);
          MustExecute(&client, "commit -t " + w + " -m x");
        }
        (void)client.Execute("exit");
      });
    }
    for (std::thread& t : threads) t.join();
    server.Stop();
    storage::DisarmIoFaults();
    ASSERT_EQ(0, failures.load());

    // All-or-nothing per commit: every one of them landed.
    Cvd* cvd = api.orpheus()->GetCvd("c").ValueOrDie();
    EXPECT_EQ(1 + kSessions * kCommits, cvd->latest_version());

    // Grouping really happened: the run wrote 1 record per commit (the
    // checkouts log nothing) but synced strictly fewer times than that.
    uint64_t records_written = sm->wal_records() - records_before;
    uint64_t syncs_issued = sm->wal_syncs() - syncs_before;
    EXPECT_EQ(static_cast<uint64_t>(kSessions * kCommits), records_written);
    EXPECT_LT(syncs_issued, records_written)
        << "no commit group ever held more than one record";

    total_records = static_cast<size_t>(sm->wal_records());
    live_blob = storage::SnapshotCodec::Encode(*api.orpheus(), 0);
  }
  ExpectGaplessWal(dir.path(), total_records);

  // Live-vs-recovered bit identity: the WAL the groups wrote is a
  // correct total order of what actually happened.
  OrpheusDB recovered;
  ASSERT_TRUE(recovered.Open(dir.path()).ok());
  EXPECT_EQ(live_blob, storage::SnapshotCodec::Encode(recovered, 0))
      << "recovered engine diverged from the live one";
}

TEST(GroupCommitStress, TcpSessionsSerialExec) {
  RunTcpStress(/*exec_threads=*/1);
}

TEST(GroupCommitStress, TcpSessionsParallelExec) {
  RunTcpStress(/*exec_threads=*/4);
  SetExecThreads(1);
}

}  // namespace
}  // namespace orpheus
