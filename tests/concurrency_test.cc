// Tests for the concurrency core (core/concurrency.h) and the
// multi-session behaviour of EngineApi: pin/unpin semantics, snapshot
// stability for pinned readers while writers commit, and the
// serializability property test — N concurrent sessions replaying
// randomized checkout/commit/discard schedules against a durable
// engine must leave a WAL whose replay reproduces the live state
// bit-identically (the WAL records the serialized order the exclusive
// lock chose, so replay equality IS serializability).

#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/concurrency.h"
#include "core/engine_api.h"
#include "core/orpheus.h"
#include "storage/io_util.h"
#include "storage/snapshot.h"
#include "storage/storage_manager.h"

namespace orpheus {
namespace {

using core::Cvd;
using core::CvdOptions;
using core::EngineApi;
using core::OrpheusDB;
using core::SessionContext;
using core::SessionPin;
using core::SnapshotRegistry;

class TempDir {
 public:
  TempDir() : path_(storage::MakeTempDir("orpheus_conc_").ValueOrDie()) {}
  ~TempDir() { (void)storage::RemoveDirRecursive(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// k INT (pk), score DOUBLE.
rel::Chunk MakeRows(int n, int offset = 0) {
  rel::Schema schema;
  schema.AddColumn("k", rel::DataType::kInt64);
  schema.AddColumn("score", rel::DataType::kDouble);
  rel::Chunk rows(schema);
  for (int i = 0; i < n; ++i) {
    rows.mutable_column(0).AppendInt(offset + i);
    rows.mutable_column(1).AppendDouble(0.25 * (offset + i));
  }
  return rows;
}

// Registers CVD `name` with `rows` directly on the engine (no CSV
// file needed). Only safe before concurrent sessions start.
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

// --- SnapshotRegistry ----------------------------------------------------

TEST(SnapshotRegistry, PinUnpinAndOwnership) {
  SnapshotRegistry reg;
  EXPECT_EQ(0, reg.PinCount("c"));
  reg.Pin(1, "c", SessionPin{2, 10});
  reg.Pin(2, "c", SessionPin{3, 11});
  reg.Pin(2, "d", SessionPin{1, 11});
  EXPECT_EQ(2, reg.PinCount("c"));
  EXPECT_EQ(1, reg.PinsByOthers("c", 1));  // session 2's pin
  EXPECT_EQ(0, reg.PinsByOthers("d", 2));  // own pin doesn't count
  EXPECT_EQ(2u, reg.PinsOf(2).size());
  EXPECT_EQ(3, reg.PinsOf(2).at("c").vid);
  EXPECT_TRUE(reg.PinsOf(9).empty());

  // Re-pinning replaces, not duplicates.
  reg.Pin(1, "c", SessionPin{4, 12});
  EXPECT_EQ(2, reg.PinCount("c"));

  EXPECT_TRUE(reg.Unpin(1, "c"));
  EXPECT_FALSE(reg.Unpin(1, "c"));  // already gone
  EXPECT_EQ(1, reg.PinCount("c"));

  EXPECT_EQ(2, reg.UnpinAll(2));  // c + d
  EXPECT_EQ(0, reg.PinCount("c"));
  EXPECT_EQ(0, reg.PinCount("d"));

  reg.Pin(3, "c", SessionPin{1, 13});
  reg.ForgetCvd("c");
  EXPECT_EQ(0, reg.PinCount("c"));
}

TEST(SessionContext, StagedTablesAndActivityClock) {
  SessionContext session(7);
  EXPECT_EQ(7u, session.id());
  EXPECT_EQ("default", session.user());
  EXPECT_FALSE(session.exited());

  session.AddCsvStaging("f.csv", "t5");
  EXPECT_EQ("t5", session.GetCsvStaging("f.csv"));
  session.RemoveCsvStaging("f.csv");
  EXPECT_EQ("", session.GetCsvStaging("f.csv"));

  EXPECT_LT(session.IdleSeconds(), 5.0);
  int a = session.NextStagingId();
  int b = session.NextStagingId();
  EXPECT_EQ(a + 1, b);
}

TEST(ThreadPoolPost, RunsFireAndForgetTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.Post([&ran] { ran.fetch_add(1); });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(100, ran.load());
}

// --- EngineApi session verbs --------------------------------------------

TEST(EngineApiSessions, PinGuardsDropAgainstOtherSessions) {
  EngineApi api;
  Seed(&api, "c", 4);
  auto reader = api.NewSession();
  auto writer = api.NewSession();

  MustExecute(&api, reader.get(), "pin c");
  EXPECT_NE(std::string::npos,
            MustExecute(&api, reader.get(), "pins").find("c v1"));

  // Another session cannot drop a pinned CVD...
  auto drop = api.Execute(writer.get(), "drop c");
  ASSERT_FALSE(drop.ok());
  EXPECT_EQ(StatusCode::kFailedPrecondition, drop.status().code());

  // ...until the pin is released.
  MustExecute(&api, reader.get(), "unpin c");
  EXPECT_EQ("dropped c", MustExecute(&api, writer.get(), "drop c"));
}

TEST(EngineApiSessions, PinValidatesVersionAndDefaultsToLatest) {
  EngineApi api;
  Seed(&api, "c", 4);
  auto session = api.NewSession();
  EXPECT_FALSE(api.Execute(session.get(), "pin c -v 99").ok());
  EXPECT_FALSE(api.Execute(session.get(), "pin nosuch").ok());
  EXPECT_NE(std::string::npos,
            MustExecute(&api, session.get(), "pin c").find("version 1"));
}

TEST(EngineApiSessions, DiscardDropsOwnStagedTable) {
  EngineApi api;
  Seed(&api, "c", 4);
  auto session = api.NewSession();
  MustExecute(&api, session.get(), "checkout c -v 1 -t w");
  EXPECT_EQ("discarded staged table w",
            MustExecute(&api, session.get(), "discard -t w"));
  EXPECT_FALSE(api.orpheus()->db()->GetTable("w").ok());
  // Discarding again is a clean error, not a crash.
  EXPECT_FALSE(api.Execute(session.get(), "discard -t w").ok());
}

TEST(EngineApiSessions, CloseSessionDiscardsStagedAndReleasesPins) {
  EngineApi api;
  Seed(&api, "c", 4);
  auto session = api.NewSession();
  MustExecute(&api, session.get(), "checkout c -v 1 -t w");
  MustExecute(&api, session.get(), "pin c");
  api.CloseSession(session.get(), /*discard_staged=*/true);
  EXPECT_TRUE(session->exited());
  EXPECT_FALSE(api.orpheus()->db()->GetTable("w").ok());
  EXPECT_EQ(0, api.registry()->PinCount("c"));
}

// A staged table's owner is its staging entry, not a per-session copy:
// once another session commits D's table and a third checks the name
// out again, D's disconnect must leave the third session's table alone.
TEST(EngineApiSessions, CloseDiscardsOnlyOwnCheckouts) {
  EngineApi api;
  Seed(&api, "c", 4);
  auto d = api.NewSession();
  auto e = api.NewSession();
  auto f = api.NewSession();
  MustExecute(&api, d.get(), "checkout c -v 1 -t w2");
  // Any session may commit a staged table by name.
  MustExecute(&api, e.get(), "commit -t w2 -m by_e");
  MustExecute(&api, f.get(), "checkout c -v 1 -t w2");
  api.CloseSession(d.get(), /*discard_staged=*/true);
  EXPECT_TRUE(api.orpheus()->db()->HasTable("w2"));
  EXPECT_EQ("committed version 3 to c",
            MustExecute(&api, f.get(), "commit -t w2 -m by_f"));
}

// `pins` lists the registry's pins of this session: a pin, an unpin
// and a drop each show there.
TEST(EngineApiSessions, PinsComeFromTheRegistry) {
  EngineApi api;
  Seed(&api, "c", 4);
  Seed(&api, "d", 4);
  auto session = api.NewSession();
  auto other = api.NewSession();
  EXPECT_EQ("(no pins)", MustExecute(&api, session.get(), "pins"));
  MustExecute(&api, session.get(), "pin c");
  MustExecute(&api, session.get(), "pin d");
  const uint64_t epoch = api.lock()->epoch();
  EXPECT_EQ("c v1 (epoch " + std::to_string(epoch) + ")\nd v1 (epoch " +
                std::to_string(epoch) + ")",
            MustExecute(&api, session.get(), "pins"));
  EXPECT_EQ(1u, api.registry()->PinsOf(session->id()).count("c"));
  EXPECT_EQ("(no pins)", MustExecute(&api, other.get(), "pins"));

  MustExecute(&api, session.get(), "unpin c");
  EXPECT_EQ("d v1 (epoch " + std::to_string(epoch) + ")",
            MustExecute(&api, session.get(), "pins"));
  // The pinning session may drop its own pinned CVD; the pin goes with it.
  MustExecute(&api, session.get(), "drop d");
  EXPECT_EQ("(no pins)", MustExecute(&api, session.get(), "pins"));
  EXPECT_TRUE(api.registry()->PinsOf(session->id()).empty());
}

TEST(EngineApiSessions, SessionsSeeSharedEngineButOwnUser) {
  EngineApi api;
  auto a = api.NewSession();
  auto b = api.NewSession();
  MustExecute(&api, a.get(), "create_user alice");
  MustExecute(&api, a.get(), "config alice");
  EXPECT_EQ("alice", MustExecute(&api, a.get(), "whoami"));
  // Session identity is per-session even though the engine is shared.
  EXPECT_EQ("default", MustExecute(&api, b.get(), "whoami"));
}

// --- Reads that overlap ----------------------------------------------------
//
// diff and a versioned SELECT run under the shared lock. Both read a
// version's rows into memory and leave the catalog alone, so they may
// overlap freely (TSan runs this test in CI).

TEST(EngineApiSessions, ConcurrentDiffsAndVersionReadsAllSucceed) {
  EngineApi api;
  Seed(&api, "c", 64);
  auto setup = api.NewSession();
  MustExecute(&api, setup.get(), "checkout c -v 1 -t w");
  MustExecute(&api, setup.get(), "sql UPDATE w SET score = 1.5 WHERE k < 8");
  MustExecute(&api, setup.get(), "commit -t w -m edit");
  const std::string diff = MustExecute(&api, setup.get(), "diff c 1 2");
  const std::string count =
      MustExecute(&api, setup.get(), "run SELECT count(*) FROM VERSION 1 OF CVD c");

  constexpr int kDiffers = 4;
  constexpr int kDiffs = 200;
  std::atomic<bool> diffs_done{false};
  std::atomic<bool> reader_started{false};
  std::atomic<int> failures{0};
  std::thread reader([&] {
    auto session = api.NewSession();
    do {
      auto got =
          api.Execute(session.get(), "run SELECT count(*) FROM VERSION 1 OF CVD c");
      if (!got.ok() || got.value() != count) failures.fetch_add(1);
      reader_started.store(true);
    } while (!diffs_done.load());
  });
  while (!reader_started.load()) std::this_thread::yield();
  std::vector<std::thread> differs;
  for (int d = 0; d < kDiffers; ++d) {
    differs.emplace_back([&] {
      auto session = api.NewSession();
      for (int i = 0; i < kDiffs; ++i) {
        auto got = api.Execute(session.get(), "diff c 1 2");
        if (!got.ok() || got.value() != diff) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : differs) t.join();
  diffs_done.store(true);
  reader.join();
  EXPECT_EQ(0, failures.load());
}

// --- Snapshot-isolated readers ------------------------------------------
//
// Acceptance criterion: a reader that pinned version 1 keeps observing
// exactly version 1's records while a writer commits new versions.

TEST(EngineApiSessions, PinnedReaderSeesStableSnapshotWhileWriterCommits) {
  EngineApi api;
  Seed(&api, "c", 8);
  auto pinner = api.NewSession();
  MustExecute(&api, pinner.get(), "pin c -v 1");
  const std::string baseline =
      MustExecute(&api, pinner.get(), "run SELECT * FROM VERSION 1 OF CVD c");
  ASSERT_FALSE(baseline.empty());

  constexpr int kReaders = 3;
  constexpr int kCommits = 12;
  std::atomic<bool> writer_done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> reads{0};
  // Start latch: readers that have completed their first read. The
  // writer starts only once every reader has, so the reads overlap the
  // commits however the threads are scheduled.
  std::atomic<int> readers_started{0};

  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&api, &baseline, &writer_done, &mismatches, &reads,
                          &readers_started] {
      auto session = api.NewSession();
      bool first = true;
      do {
        auto got =
            api.Execute(session.get(), "run SELECT * FROM VERSION 1 OF CVD c");
        if (!got.ok() || got.value() != baseline) mismatches.fetch_add(1);
        reads.fetch_add(1);
        if (std::exchange(first, false)) readers_started.fetch_add(1);
      } while (!writer_done.load());
    });
  }
  threads.emplace_back([&api, &writer_done, &readers_started] {
    auto session = api.NewSession();
    while (readers_started.load() < kReaders) std::this_thread::yield();
    for (int i = 0; i < kCommits; ++i) {
      std::string w = "wr" + std::to_string(i);
      MustExecute(&api, session.get(), "checkout c -v 1 -t " + w);
      MustExecute(&api, session.get(),
                  "sql UPDATE " + w + " SET score = " + std::to_string(i) +
                      ".5 WHERE k = 3");
      MustExecute(&api, session.get(), "commit -t " + w + " -m rev");
    }
    writer_done.store(true);
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(0, mismatches.load());
  EXPECT_GT(reads.load(), 0);
  // The writer really did move the CVD forward underneath the readers.
  Cvd* cvd = api.orpheus()->GetCvd("c").ValueOrDie();
  EXPECT_EQ(1 + kCommits, cvd->latest_version());
}

// --- The serializability property test ----------------------------------
//
// N sessions run randomized checkout / edit / commit / discard / read
// schedules concurrently. The exclusive lock serializes every mutation
// and its WAL append, so the WAL is a total order; replaying it into a
// fresh engine must reproduce the live engine's state bit-for-bit
// (compared through the snapshot codec, which canonicalizes all engine
// state). Checkout is not logged and does not tick the logical clock,
// and session close leaves the staging area empty, so the checkouts
// sessions discard or abandon leave nothing replay could miss. Run at
// both --threads=1 and --threads=4 so the relstore's parallel scan
// paths are exercised under the shared lock too.

void RunInterleavingSchedule(int exec_threads, uint32_t seed) {
  SetExecThreads(exec_threads);
  TempDir dir;
  std::string live_blob;
  {
    EngineApi api;
    ASSERT_TRUE(api.orpheus()->Open(dir.path()).ok());
    Seed(&api, "c", 10);
    Seed(&api, "d", 6);

    constexpr int kSessions = 4;
    constexpr int kRounds = 8;
    std::vector<std::thread> threads;
    threads.reserve(kSessions);
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back([&api, s, seed] {
        auto session = api.NewSession();
        std::mt19937 rng(seed + static_cast<uint32_t>(s));
        for (int r = 0; r < kRounds; ++r) {
          const std::string cvd = (rng() % 3 != 0) ? "c" : "d";
          const std::string w =
              "s" + std::to_string(s) + "_r" + std::to_string(r);
          MustExecute(&api, session.get(),
                      "checkout " + cvd + " -v 1 -t " + w);
          if (rng() % 2 == 0) {
            MustExecute(&api, session.get(),
                        "sql UPDATE " + w + " SET score = " +
                            std::to_string(s * 100 + r) + ".0 WHERE k = 1");
          }
          switch (rng() % 4) {
            case 0:
              MustExecute(&api, session.get(), "discard -t " + w);
              break;
            case 1:  // leave staged: session close must clean it up
              break;
            default:
              MustExecute(&api, session.get(), "commit -t " + w + " -m r");
              break;
          }
          if (rng() % 2 == 0) {
            MustExecute(&api, session.get(),
                        "run SELECT * FROM VERSION 1 OF CVD " + cvd);
          }
          if (rng() % 4 == 0) MustExecute(&api, session.get(), "ls");
        }
        api.CloseSession(session.get(), /*discard_staged=*/true);
      });
    }
    for (std::thread& t : threads) t.join();
    live_blob = storage::SnapshotCodec::Encode(*api.orpheus(), 0);
  }

  // Replay the WAL the concurrent run wrote. Equality proves the log
  // is a correct total order of what actually happened.
  OrpheusDB recovered;
  ASSERT_TRUE(recovered.Open(dir.path()).ok());
  std::string recovered_blob = storage::SnapshotCodec::Encode(recovered, 0);
  EXPECT_EQ(live_blob, recovered_blob)
      << "concurrent schedule diverged from its WAL replay";
}

TEST(ConcurrencyProperty, InterleavedSessionsMatchWalReplaySerial) {
  RunInterleavingSchedule(/*exec_threads=*/1, /*seed=*/1234);
}

TEST(ConcurrencyProperty, InterleavedSessionsMatchWalReplayParallel) {
  RunInterleavingSchedule(/*exec_threads=*/4, /*seed=*/98765);
  SetExecThreads(1);
}

// Concurrent commits against one CVD from many sessions all land:
// version count is exact, no torn state.

TEST(ConcurrencyProperty, ConcurrentCommitsAllLand) {
  SetExecThreads(2);
  EngineApi api;
  Seed(&api, "c", 6);
  constexpr int kSessions = 6;
  constexpr int kCommits = 5;
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&api, s] {
      auto session = api.NewSession();
      for (int i = 0; i < kCommits; ++i) {
        std::string w = "t" + std::to_string(s) + "_" + std::to_string(i);
        MustExecute(&api, session.get(), "checkout c -v 1 -t " + w);
        MustExecute(&api, session.get(), "commit -t " + w + " -m x");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Cvd* cvd = api.orpheus()->GetCvd("c").ValueOrDie();
  EXPECT_EQ(1 + kSessions * kCommits, cvd->latest_version());
  SetExecThreads(1);
}

}  // namespace
}  // namespace orpheus
