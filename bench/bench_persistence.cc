// Durable storage benchmarks: snapshot write/load and commit-WAL
// append/replay throughput at --scale'd dataset sizes.
//
// Seven phases, each reported with wall time and MB/s or records/s:
//   1. durable commit loop    — checkout + commit through the WAL
//   2. checkpoint             — segment encode + atomic manifest
//                               replace (size = MANIFEST + segments)
//   3. cold open (segments)   — restore from the manifest alone
//   4. cold open (WAL tail)   — restore segments + replay the commits
//                               logged after the checkpoint
//   5. concurrent committers  — N sessions committing through
//                               EngineApi (always group-committed);
//                               the group-commit speedup headline
//   6. dirty-fraction sweep   — re-checkpoint cost with k of 8 tables
//                               dirty, incremental vs full rewrite;
//                               the incremental-checkpoint headline
//   7. metrics overhead       — the phase-5 committer loop with the
//                               metrics registry live vs no-op'd
//                               (obs::SetMetricsEnabled), bounding the
//                               observability hot-path cost
//
// Usage: bench_persistence [--scale=<f>] [--threads=<n>] [--commits=<n>]
//                          [--gc-ops=<n>] [--gc-sweep=1,4,8] [--json=<path>]
//
// --json writes machine-readable results (BENCH_persistence.json in
// CI, where loose threshold gates check the group-commit speedup, the
// 1-of-8-dirty incremental checkpoint discount, and the metrics
// overhead ratio).

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/engine_api.h"
#include "core/orpheus.h"
#include "obs/metrics.h"
#include "storage/io_util.h"
#include "storage/storage_manager.h"

using namespace orpheus;         // NOLINT
using namespace orpheus::bench;  // NOLINT

namespace {

struct Numbers {
  double commit_fsync_s = 0;
  int64_t wal_bytes = 0;         // the whole log after phase 1
  int64_t commit_wal_bytes = 0;  // what phase 1's commits appended
  double checkpoint_s = 0;
  int64_t checkpoint_bytes = 0;  // MANIFEST + live segments
  double open_snapshot_s = 0;
  double open_replay_s = 0;
  int64_t records = 0;
  int commits = 0;
};

double MbPerSec(int64_t bytes, double seconds) {
  if (seconds <= 0) return 0;
  return static_cast<double>(bytes) / (1024.0 * 1024.0) / seconds;
}

// Total durable checkpoint footprint: the MANIFEST plus every live
// segment file (v2 has no monolithic snapshot to stat).
Result<int64_t> CheckpointFootprint(const std::string& dir) {
  ORPHEUS_ASSIGN_OR_RETURN(
      int64_t total,
      storage::FileSize(storage::StorageManager::ManifestPath(dir)));
  const std::string segments = storage::StorageManager::SegmentsDir(dir);
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<std::string> names,
                           storage::ListDir(segments));
  for (const std::string& name : names) {
    ORPHEUS_ASSIGN_OR_RETURN(int64_t size,
                             storage::FileSize(segments + "/" + name));
    total += size;
  }
  return total;
}

// One point of the concurrent-committers sweep (phase 5).
struct GroupCommitPoint {
  int sessions = 0;
  int commits = 0;          // total across sessions
  double seconds = 0;
  double commits_per_sec = 0;
  int64_t wal_records = 0;  // records the run appended
  int64_t wal_syncs = 0;    // fdatasyncs it cost
};

// N sessions, each checkout+commit-ing `ops` times over EngineApi on
// a CVD of its own, so every point's commits cost the same CPU (a
// checkout's cost grows with its CVD's version count) and the points
// differ only in how their syncs group. Small rows: the point is sync
// cost, not chunk encoding. Returns throughput + the records/syncs the
// WAL saw.
Result<GroupCommitPoint> RunGroupCommitPoint(int sessions, int ops,
                                             const std::string& dir) {
  GroupCommitPoint point;
  point.sessions = sessions;
  point.commits = sessions * ops;

  core::EngineApi api;
  ORPHEUS_RETURN_NOT_OK(api.orpheus()->Open(dir));
  rel::Schema schema;
  schema.AddColumn("k", rel::DataType::kInt64);
  schema.AddColumn("v", rel::DataType::kDouble);
  rel::Chunk rows(schema);
  for (int i = 0; i < 8; ++i) {
    rows.mutable_column(0).AppendInt(i);
    rows.mutable_column(1).AppendDouble(0.5 * i);
  }
  core::CvdOptions options;
  options.primary_key = {"k"};
  for (int s = 0; s < sessions; ++s) {
    ORPHEUS_ASSIGN_OR_RETURN(
        core::Cvd * cvd, api.orpheus()->InitCvd("gc" + std::to_string(s), rows,
                                                options, "init"));
    (void)cvd;
  }
  storage::StorageManager* sm = api.orpheus()->storage();
  const uint64_t records_before = sm->wal_records();
  const uint64_t syncs_before = sm->wal_syncs();

  std::vector<std::thread> threads;
  std::vector<Status> failures(static_cast<size_t>(sessions));
  threads.reserve(static_cast<size_t>(sessions));
  WallTimer timer;
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&api, &failures, s, ops] {
      auto session = api.NewSession();
      for (int i = 0; i < ops; ++i) {
        std::string w = "w" + std::to_string(s) + "_" + std::to_string(i);
        auto checkout = api.Execute(
            session.get(),
            "checkout gc" + std::to_string(s) + " -v 1 -t " + w);
        if (!checkout.ok()) {
          failures[static_cast<size_t>(s)] = checkout.status();
          return;
        }
        auto commit = api.Execute(session.get(), "commit -t " + w + " -m b");
        if (!commit.ok()) {
          failures[static_cast<size_t>(s)] = commit.status();
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  point.seconds = timer.ElapsedSeconds();
  for (const Status& st : failures) ORPHEUS_RETURN_NOT_OK(st);

  point.commits_per_sec = point.commits / point.seconds;
  point.wal_records = static_cast<int64_t>(sm->wal_records() - records_before);
  point.wal_syncs = static_cast<int64_t>(sm->wal_syncs() - syncs_before);
  return point;
}

// One point of the checkpoint-cost-vs-dirty-fraction sweep (phase 6).
struct DirtySweepPoint {
  int tables = 0;
  int dirty = 0;
  double incremental_s = 0;   // epoch-tracked checkpoint
  double full_rewrite_s = 0;  // reference mode: every segment rewritten
  int64_t segments_written = 0;
  int64_t segments_reused = 0;
  int64_t bytes_written = 0;
};

// `tables` equal-size tables checkpointed clean, then `dirty` of them
// mutated; measures the re-checkpoint cost with epoch-tracked segment
// reuse on vs pinned off. The same dirty set is re-dirtied for the
// full-rewrite run so both timings fold identical work.
Result<DirtySweepPoint> RunDirtyPoint(int tables, int dirty,
                                      int rows_per_table,
                                      const std::string& dir) {
  DirtySweepPoint point;
  point.tables = tables;
  point.dirty = dirty;
  core::OrpheusDB db;
  ORPHEUS_RETURN_NOT_OK(db.Open(dir));
  rel::Schema schema;
  schema.AddColumn("k", rel::DataType::kInt64);
  schema.AddColumn("v", rel::DataType::kDouble);
  for (int t = 0; t < tables; ++t) {
    rel::Chunk rows(schema);
    for (int i = 0; i < rows_per_table; ++i) {
      rows.mutable_column(0).AppendInt(i);
      rows.mutable_column(1).AppendDouble(0.25 * i + t);
    }
    ORPHEUS_RETURN_NOT_OK(
        db.db()->AdoptTable("t" + std::to_string(t), std::move(rows), {"k"}));
  }
  ORPHEUS_RETURN_NOT_OK(db.Checkpoint());  // baseline: every segment clean

  auto mutate = [&db](int t) {
    return db.db()
        ->Execute("UPDATE t" + std::to_string(t) + " SET v = 9.75 WHERE k = 0")
        .status();
  };
  for (int t = 0; t < dirty; ++t) ORPHEUS_RETURN_NOT_OK(mutate(t));
  WallTimer inc_timer;
  ORPHEUS_RETURN_NOT_OK(db.Checkpoint());
  point.incremental_s = inc_timer.ElapsedSeconds();
  const storage::StorageManager::CheckpointStats stats =
      db.storage()->last_checkpoint_stats();
  point.segments_written = static_cast<int64_t>(stats.segments_written);
  point.segments_reused = static_cast<int64_t>(stats.segments_reused);
  point.bytes_written = static_cast<int64_t>(stats.bytes_written);

  db.storage()->set_incremental_checkpoint(false);
  for (int t = 0; t < dirty; ++t) ORPHEUS_RETURN_NOT_OK(mutate(t));
  WallTimer full_timer;
  ORPHEUS_RETURN_NOT_OK(db.Checkpoint());
  point.full_rewrite_s = full_timer.ElapsedSeconds();
  return point;
}

Result<Numbers> RunOnce(const wl::Dataset& data, int commits,
                        const std::string& dir) {
  Numbers out;
  out.commits = commits;
  // Held in a unique_ptr so the writer can be closed (releasing the
  // directory LOCK) before each cold-open phase measures recovery.
  auto db_holder = std::make_unique<core::OrpheusDB>();
  core::OrpheusDB& db = *db_holder;
  ORPHEUS_RETURN_NOT_OK(db.Open(dir));

  // Version 1 carries the whole record universe so commits rewrite a
  // full-size staged table (the worst case the WAL has to carry).
  rel::Chunk all = data.AllRecordRows();
  rel::Schema data_schema = data.DataSchema();
  rel::Chunk rows(data_schema);
  {
    std::vector<uint32_t> every(all.num_rows());
    for (size_t i = 0; i < every.size(); ++i) {
      every[i] = static_cast<uint32_t>(i);
    }
    for (int c = 0; c < data_schema.num_columns(); ++c) {
      rows.mutable_column(c).Gather(all.column(c + 1), every);
    }
  }
  out.records = static_cast<int64_t>(rows.num_rows());
  core::CvdOptions options;
  ORPHEUS_ASSIGN_OR_RETURN(core::Cvd * cvd,
                           db.InitCvd("bench", rows, options, "init"));
  (void)cvd;

  // Phase 1: durable commits, each waiting for its own fdatasync.
  const std::string wal_path = storage::StorageManager::WalPath(dir);
  ORPHEUS_ASSIGN_OR_RETURN(const int64_t wal_before, storage::FileSize(wal_path));
  WallTimer commit_timer;
  for (int i = 0; i < commits; ++i) {
    std::string table = "w" + std::to_string(i);
    ORPHEUS_RETURN_NOT_OK(db.Checkout("bench", {1}, table));
    ORPHEUS_ASSIGN_OR_RETURN(core::VersionId vid,
                             db.Commit("bench", table, "commit"));
    (void)vid;
  }
  out.commit_fsync_s = commit_timer.ElapsedSeconds();

  ORPHEUS_ASSIGN_OR_RETURN(out.wal_bytes, storage::FileSize(wal_path));
  out.commit_wal_bytes = out.wal_bytes - wal_before;

  // Phase 2: checkpoint (segments covering everything, WAL truncated).
  WallTimer checkpoint_timer;
  ORPHEUS_RETURN_NOT_OK(db.Checkpoint());
  out.checkpoint_s = checkpoint_timer.ElapsedSeconds();
  ORPHEUS_ASSIGN_OR_RETURN(out.checkpoint_bytes, CheckpointFootprint(dir));

  // Phase 3: cold open from the snapshot alone. The writer must close
  // first — the directory LOCK admits one engine at a time.
  db_holder.reset();
  {
    core::OrpheusDB cold;
    WallTimer open_timer;
    ORPHEUS_RETURN_NOT_OK(cold.Open(dir));
    out.open_snapshot_s = open_timer.ElapsedSeconds();

    // Phase 4 setup: log a WAL tail behind the snapshot through the
    // reopened engine, then close it again.
    for (int i = 0; i < commits; ++i) {
      std::string table = "r" + std::to_string(i);
      ORPHEUS_RETURN_NOT_OK(cold.Checkout("bench", {1}, table));
      ORPHEUS_ASSIGN_OR_RETURN(core::VersionId vid,
                               cold.Commit("bench", table, "tail"));
      (void)vid;
    }
  }
  // Phase 4: open again so recovery replays the tail.
  {
    core::OrpheusDB cold;
    WallTimer open_timer;
    ORPHEUS_RETURN_NOT_OK(cold.Open(dir));
    out.open_replay_s = open_timer.ElapsedSeconds();
  }
  return out;
}

// Phase 7 result: wall time of the same committer loop with metrics
// live vs no-op'd, best-of-N each to shave scheduler noise.
struct MetricsOverhead {
  double enabled_s = 0;
  double disabled_s = 0;
  double ratio = 0;  // enabled / disabled; 1.0 = free
};

std::string ToJson(const std::vector<Numbers>& phases,
                   const std::vector<std::string>& phase_names,
                   const std::vector<GroupCommitPoint>& sweep, int gc_ops,
                   const std::vector<DirtySweepPoint>& dirty_sweep,
                   const MetricsOverhead& overhead) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"persistence\",\n  \"datasets\": [\n";
  for (size_t i = 0; i < phases.size(); ++i) {
    const Numbers& n = phases[i];
    out << "    {\"dataset\": \"" << phase_names[i]
        << "\", \"records\": " << n.records << ", \"commits\": " << n.commits
        << ", \"commit_fsync_s\": " << n.commit_fsync_s
        << ", \"wal_bytes\": " << n.wal_bytes
        << ", \"commit_wal_bytes\": " << n.commit_wal_bytes
        << ", \"checkpoint_s\": " << n.checkpoint_s
        << ", \"checkpoint_bytes\": " << n.checkpoint_bytes
        << ", \"open_snapshot_s\": " << n.open_snapshot_s
        << ", \"open_replay_s\": " << n.open_replay_s << "}"
        << (i + 1 < phases.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"ops_per_session\": " << gc_ops
      << ",\n  \"group_commit_sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const GroupCommitPoint& p = sweep[i];
    out << "    {\"sessions\": " << p.sessions
        << ", \"commits\": " << p.commits << ", \"seconds\": " << p.seconds
        << ", \"commits_per_sec\": " << p.commits_per_sec
        << ", \"wal_records\": " << p.wal_records
        << ", \"wal_syncs\": " << p.wal_syncs << "}"
        << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"checkpoint_dirty_sweep\": [\n";
  for (size_t i = 0; i < dirty_sweep.size(); ++i) {
    const DirtySweepPoint& p = dirty_sweep[i];
    out << "    {\"tables\": " << p.tables << ", \"dirty\": " << p.dirty
        << ", \"incremental_s\": " << p.incremental_s
        << ", \"full_rewrite_s\": " << p.full_rewrite_s
        << ", \"segments_written\": " << p.segments_written
        << ", \"segments_reused\": " << p.segments_reused
        << ", \"bytes_written\": " << p.bytes_written << "}"
        << (i + 1 < dirty_sweep.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"metrics_overhead\": {\"enabled_s\": " << overhead.enabled_s
      << ", \"disabled_s\": " << overhead.disabled_s
      << ", \"ratio\": " << overhead.ratio << "},\n"
      << "  \"metrics\": " << MetricsJson("  ") << "\n}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 1.0);
  int commits = static_cast<int>(flags.GetInt("commits", 4));
  int gc_ops = static_cast<int>(flags.GetInt("gc-ops", 400));
  SetExecThreads(static_cast<int>(flags.GetInt("threads", 0)));

  std::cout << "=== Durable storage: snapshot + WAL throughput ===\n\n";
  TablePrinter table({"Dataset", "|R|", "commit(fsync)", "WAL MB/s",
                      "checkpoint", "ckpt size", "open(segs)",
                      "open(segs+WAL)"});
  std::vector<Numbers> phases;
  std::vector<std::string> phase_names;
  for (const wl::DatasetSpec& base :
       {SmallSpec(wl::WorkloadKind::kSci), MediumSpec(wl::WorkloadKind::kSci)}) {
    wl::DatasetSpec spec = Scaled(base, scale);
    wl::Dataset data = wl::Generate(spec);
    auto tmp = storage::MakeTempDir("orpheus_bench_");
    if (!tmp.ok()) {
      std::cerr << "error: " << tmp.status().ToString() << "\n";
      return 1;
    }
    const std::string dir = tmp.value() + "/db";
    auto result = RunOnce(data, commits, dir);
    (void)storage::RemoveDirRecursive(tmp.value());
    if (!result.ok()) {
      std::cerr << "error: " << result.status().ToString() << "\n";
      return 1;
    }
    const Numbers& n = result.value();
    phases.push_back(n);
    phase_names.push_back(spec.Name());
    table.AddRow({spec.Name(), WithThousandsSep(n.records),
                  FormatSeconds(n.commit_fsync_s / n.commits),
                  StrFormat("%.1f", MbPerSec(n.commit_wal_bytes, n.commit_fsync_s)),
                  FormatSeconds(n.checkpoint_s),
                  FormatBytes(n.checkpoint_bytes),
                  FormatSeconds(n.open_snapshot_s),
                  FormatSeconds(n.open_replay_s)});
  }
  table.Print();
  std::cout << "\ncommit columns are per-commit wall time over " << commits
            << " full-size commits; WAL MB/s is the bytes those commits"
            << " appended over their time; open(snap+WAL) replays " << commits
            << " commits logged after the checkpoint.\n";

  // Phase 5: concurrent committers.
  std::cout << "\n=== Group commit: concurrent committers ===\n\n";
  std::cout << "sessions  commits/s   syncs/records   wall s\n";
  std::vector<GroupCommitPoint> sweep;
  std::vector<int> sweep_sessions;
  for (const std::string& piece :
       Split(flags.GetString("gc-sweep", "1,4,8"), ',')) {
    sweep_sessions.push_back(std::atoi(std::string(Trim(piece)).c_str()));
  }
  for (int sessions : sweep_sessions) {
    auto tmp = storage::MakeTempDir("orpheus_bench_gc_");
    if (!tmp.ok()) {
      std::cerr << "error: " << tmp.status().ToString() << "\n";
      return 1;
    }
    auto point = RunGroupCommitPoint(sessions, gc_ops, tmp.value() + "/db");
    (void)storage::RemoveDirRecursive(tmp.value());
    if (!point.ok()) {
      std::cerr << "error: gc sweep " << sessions << " sessions: "
                << point.status().ToString() << "\n";
      return 1;
    }
    sweep.push_back(point.value());
    const GroupCommitPoint& p = sweep.back();
    std::printf("%8d  %9.1f  %6lld / %-6lld  %7.3f\n", p.sessions,
                p.commits_per_sec, static_cast<long long>(p.wal_syncs),
                static_cast<long long>(p.wal_records), p.seconds);
  }
  std::cout << "\nExpected shape: N concurrent committers share leaders'\n"
               "fdatasyncs (syncs well below records), so commits/s\n"
               "scales past the 1-session line, where every record is a\n"
               "group of one and pays its own sync.\n";

  // Phase 6: checkpoint cost vs dirty fraction (incremental headline).
  std::cout << "\n=== Incremental checkpoint: cost vs dirty fraction ===\n\n";
  std::cout << "tables  dirty  incremental  full-rewrite   written/reused\n";
  std::vector<DirtySweepPoint> dirty_sweep;
  const int sweep_rows =
      scale < 0.1 ? 2000 : static_cast<int>(30000 * scale);
  for (int dirty : {1, 2, 4, 8}) {
    auto tmp = storage::MakeTempDir("orpheus_bench_dirty_");
    if (!tmp.ok()) {
      std::cerr << "error: " << tmp.status().ToString() << "\n";
      return 1;
    }
    auto point = RunDirtyPoint(8, dirty, sweep_rows, tmp.value() + "/db");
    (void)storage::RemoveDirRecursive(tmp.value());
    if (!point.ok()) {
      std::cerr << "error: dirty sweep " << dirty << "/8: "
                << point.status().ToString() << "\n";
      return 1;
    }
    dirty_sweep.push_back(point.value());
    const DirtySweepPoint& p = dirty_sweep.back();
    std::printf("%6d  %5d  %11s  %12s  %7lld / %-7lld\n", p.tables, p.dirty,
                FormatSeconds(p.incremental_s).c_str(),
                FormatSeconds(p.full_rewrite_s).c_str(),
                static_cast<long long>(p.segments_written),
                static_cast<long long>(p.segments_reused));
  }
  std::cout << "\nExpected shape: incremental checkpoint cost tracks the\n"
               "dirty fraction, not database size — the 1-of-8 point is\n"
               "the CI gate (incremental <= 0.5x the full rewrite); at\n"
               "8-of-8 the two converge since everything must be\n"
               "rewritten anyway.\n";

  // Phase 7: the observability tax. Same committer loop as phase 5
  // (4 sessions, a fixed kOverheadOps ops each whatever --gc-ops
  // says), once with the registry live and once with every
  // Inc/Observe no-op'd; best-of-3 interleaved so a scheduler hiccup
  // can't be charged to either side. Each timed run lasts over a
  // second on a 4-core box, so the CI gate's 5% term, not its 50 ms
  // absolute slack, is what binds.
  constexpr int kOverheadOps = 1500;
  std::cout << "\n=== Metrics overhead: registry live vs no-op ===\n\n";
  MetricsOverhead overhead;
  overhead.enabled_s = 1e18;
  overhead.disabled_s = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    for (bool enabled : {true, false}) {
      auto tmp = storage::MakeTempDir("orpheus_bench_obs_");
      if (!tmp.ok()) {
        std::cerr << "error: " << tmp.status().ToString() << "\n";
        return 1;
      }
      obs::SetMetricsEnabled(enabled);
      auto point = RunGroupCommitPoint(4, kOverheadOps, tmp.value() + "/db");
      obs::SetMetricsEnabled(true);
      (void)storage::RemoveDirRecursive(tmp.value());
      if (!point.ok()) {
        std::cerr << "error: overhead run: " << point.status().ToString()
                  << "\n";
        return 1;
      }
      double& best = enabled ? overhead.enabled_s : overhead.disabled_s;
      best = std::min(best, point.value().seconds);
    }
  }
  overhead.ratio = overhead.enabled_s / overhead.disabled_s;
  std::printf("metrics on: %.3fs   off: %.3fs   ratio: %.3f\n",
              overhead.enabled_s, overhead.disabled_s, overhead.ratio);
  std::cout << "\nExpected shape: ratio ~1.0 — the hot path is one relaxed\n"
               "atomic add per event, dwarfed by the WAL fdatasync (the CI\n"
               "gate allows 5% plus measurement noise).\n";

  std::string json_path = flags.GetString("json", "");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 1;
    }
    out << ToJson(phases, phase_names, sweep, gc_ops, dirty_sweep, overhead);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
