// Google-benchmark microbenchmarks for OrpheusDB's primitive
// operations: the array operators behind the data models, the
// checkout join, commit under the two main data models, the
// LYRESPLIT partitioner itself, and the parallel execution pipeline
// (thread-count sweeps over a large analytic scan, group-by,
// hash join, and ORDER BY sort).
//
// Flags (besides the usual --benchmark_* ones):
//   --scale=<f>    grow the datasets by f (default 1)
//   --threads=<n>  default scan parallelism for the non-sweep
//                  benchmarks (0 = hardware; sweeps set their own)
//   --json=<path>  machine-readable results (BENCH_micro.json in CI),
//                  including a dump of the engine metrics registry

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/data_model.h"
#include "partition/lyresplit.h"
#include "relstore/database.h"
#include "workload/generator.h"

namespace orpheus {

// Set from the command line in main().
double g_micro_scale = 1.0;
int g_micro_threads = 0;  // 0 = hardware default

namespace {

// Shared medium dataset (generated once; benchmarks only read it).
const wl::Dataset& SharedData() {
  static const wl::Dataset* data = [] {
    wl::DatasetSpec spec = bench::MediumSpec(wl::WorkloadKind::kSci);
    spec.num_attrs = 10;
    spec = bench::Scaled(spec, g_micro_scale);
    return new wl::Dataset(wl::Generate(spec));
  }();
  return *data;
}

// Large flat table for the scan sweeps (id INT, bucket INT, val
// DOUBLE), built once.
constexpr int64_t kScanRowsBase = 400000;

int64_t ScanRows() {
  return static_cast<int64_t>(static_cast<double>(kScanRowsBase) *
                              g_micro_scale);
}

rel::Database& ScanDb() {
  static rel::Database* db = [] {
    auto* d = new rel::Database;
    (void)d->Execute("CREATE TABLE scan_t (id INT, bucket INT, val DOUBLE)");
    auto table = d->GetTable("scan_t");
    rel::Chunk& chunk = table.value()->mutable_chunk();
    Rng rng(20260729);
    for (int64_t r = 0; r < ScanRows(); ++r) {
      chunk.mutable_column(0).AppendInt(r);
      chunk.mutable_column(1).AppendInt(static_cast<int64_t>(rng.Uniform(97)));
      chunk.mutable_column(2).Append(rel::Value::Double(rng.NextDouble() * 100));
    }
    return d;
  }();
  return *db;
}

// The ROADMAP "scale the relstore" acceptance benchmark: a predicate
// scan over the large table, swept over thread counts. Arg(n) is the
// thread count; compare items/sec across Args for the speedup.
void BM_ParallelScanThreads(benchmark::State& state) {
  rel::Database& db = ScanDb();
  SetExecThreads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = db.Execute(
        "SELECT count(*) FROM scan_t "
        "WHERE val * 0.5 + bucket >= 40.0 AND bucket % 7 <> 3");
    if (!r.ok()) {
      state.SkipWithError("scan failed");
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * ScanRows());
  SetExecThreads(g_micro_threads);
}
BENCHMARK(BM_ParallelScanThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Grouped aggregation over the same table: batch-parallel grouping,
// then one serial typed fold per aggregate.
void BM_ParallelGroupByThreads(benchmark::State& state) {
  rel::Database& db = ScanDb();
  SetExecThreads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = db.Execute(
        "SELECT bucket, count(*), sum(val), min(val), max(val) "
        "FROM scan_t GROUP BY bucket");
    if (!r.ok()) {
      state.SkipWithError("group-by failed");
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * ScanRows());
  SetExecThreads(g_micro_threads);
}
BENCHMARK(BM_ParallelGroupByThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Join-shaped tables for the join/sort sweeps: a fact table (1/2 of
// ScanRows(), ~4 rows per key) joined to a dimension table (1/8 of
// ScanRows(), ~1 row per key), built once.
rel::Database& JoinDb() {
  static rel::Database* db = [] {
    auto* d = new rel::Database;
    (void)d->Execute("CREATE TABLE fact_t (id INT, k INT, val DOUBLE)");
    (void)d->Execute("CREATE TABLE dim_t (k INT, weight DOUBLE)");
    const int64_t fact_rows = ScanRows() / 2;
    const int64_t dim_rows = ScanRows() / 8;
    Rng rng(20260730);
    {
      rel::Chunk& chunk = d->GetTable("fact_t").value()->mutable_chunk();
      for (int64_t r = 0; r < fact_rows; ++r) {
        chunk.mutable_column(0).AppendInt(r);
        chunk.mutable_column(1).AppendInt(
            static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(dim_rows))));
        chunk.mutable_column(2).Append(rel::Value::Double(rng.NextDouble()));
      }
    }
    {
      rel::Chunk& chunk = d->GetTable("dim_t").value()->mutable_chunk();
      for (int64_t r = 0; r < dim_rows; ++r) {
        chunk.mutable_column(0).AppendInt(r);
        chunk.mutable_column(1).Append(rel::Value::Double(rng.NextDouble()));
      }
    }
    return d;
  }();
  return *db;
}

// Hash-join build+probe+materialize swept over thread counts (the
// ISSUE-3 parallel-join acceptance benchmark). Arg(n) is the thread
// count; compare items/sec across Args for the speedup.
void BM_ParallelJoinThreads(benchmark::State& state) {
  rel::Database& db = JoinDb();
  SetExecThreads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = db.Execute(
        "SELECT count(*), sum(f.val * d.weight) FROM fact_t f, dim_t d "
        "WHERE f.k = d.k");
    if (!r.ok()) {
      state.SkipWithError("join failed");
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * (ScanRows() / 2));
  SetExecThreads(g_micro_threads);
}
BENCHMARK(BM_ParallelJoinThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ORDER BY over the large scan table: batch-parallel sort-key
// evaluation plus the deterministic parallel merge sort.
void BM_ParallelSortThreads(benchmark::State& state) {
  rel::Database& db = ScanDb();
  SetExecThreads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = db.Execute(
        "SELECT id, bucket, val FROM scan_t ORDER BY val DESC, id");
    if (!r.ok()) {
      state.SkipWithError("sort failed");
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * ScanRows());
  SetExecThreads(g_micro_threads);
}
BENCHMARK(BM_ParallelSortThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ArrayContainmentScan(benchmark::State& state) {
  // The combined-table checkout predicate: ARRAY[v] <@ vlist per row.
  rel::Database db;
  (void)db.Execute("CREATE TABLE t (rid INT, vlist INT[])");
  {
    auto table = db.GetTable("t");
    rel::Chunk& chunk = table.value()->mutable_chunk();
    for (int64_t r = 0; r < state.range(0); ++r) {
      chunk.mutable_column(0).AppendInt(r);
      rel::IntArray vlist;
      for (int64_t v = r % 7; v < 10; ++v) vlist.push_back(v);
      chunk.mutable_column(1).AppendArray(std::move(vlist));
    }
  }
  for (auto _ : state) {
    auto r = db.Execute("SELECT count(*) FROM t WHERE ARRAY[5] <@ vlist");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ArrayContainmentScan)->Arg(10000)->Arg(50000);

void BM_CheckoutUnnestJoin(benchmark::State& state) {
  // The split-by-rlist checkout query on a populated model.
  const wl::Dataset& data = SharedData();
  rel::Database db;
  auto model = core::MakeDataModel(core::DataModelKind::kSplitByRlist, &db, "m",
                                   data.DataSchema());
  if (!bench::PopulateModel(model.get(), data).ok()) {
    state.SkipWithError("populate failed");
    return;
  }
  core::VersionId latest = data.versions().back().vid;
  int i = 0;
  for (auto _ : state) {
    std::string table = "chk" + std::to_string(i++);
    auto rows = model->VersionRows(latest);
    if (!rows.ok() || !db.AdoptTable(table, std::move(rows).value()).ok()) {
      state.SkipWithError("checkout failed");
      return;
    }
    (void)db.DropTable(table);
  }
}
BENCHMARK(BM_CheckoutUnnestJoin);

void BM_CommitRlistVsCombined(benchmark::State& state) {
  // Commit (unchanged latest version) under rlist (arg 0) vs combined
  // (arg 1) — the Figure 3(b) gap in microcosm.
  const wl::Dataset& data = SharedData();
  core::DataModelKind kind = state.range(0) == 0
                                 ? core::DataModelKind::kSplitByRlist
                                 : core::DataModelKind::kCombinedTable;
  rel::Database db;
  auto model = core::MakeDataModel(kind, &db, "m", data.DataSchema());
  if (!bench::PopulateModel(model.get(), data).ok()) {
    state.SkipWithError("populate failed");
    return;
  }
  const wl::VersionSpec& latest = data.versions().back();
  auto checkout = model->VersionRows(latest.vid);
  if (!checkout.ok()) {
    state.SkipWithError("checkout failed");
    return;
  }
  const rel::Chunk& work = checkout.value();
  core::VersionId next = static_cast<core::VersionId>(data.versions().size()) + 1;
  for (auto _ : state) {
    if (!model->AddVersion(next++, work, latest.rids, rel::Chunk(),
                           latest.vid).ok()) {
      state.SkipWithError("commit failed");
      return;
    }
  }
}
BENCHMARK(BM_CommitRlistVsCombined)->Arg(0)->Arg(1);

void BM_LyreSplit(benchmark::State& state) {
  const wl::Dataset& data = SharedData();
  core::VersionGraph graph = data.BuildGraph();
  for (auto _ : state) {
    auto r = part::LyreSplit::Run(graph, 0.5);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_LyreSplit);

void BM_LyreSplitBudgetSearch(benchmark::State& state) {
  const wl::Dataset& data = SharedData();
  core::VersionGraph graph = data.BuildGraph();
  int64_t gamma = 2 * data.num_records();
  for (auto _ : state) {
    auto r = part::LyreSplit::RunForBudget(graph, gamma);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_LyreSplitBudgetSearch);

// A console reporter that also keeps each finished run for the --json
// writer (name, per-iteration times, user counters).
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    std::string name;
    int64_t iterations = 0;
    double real_s_per_iter = 0;
    double cpu_s_per_iter = 0;
    std::vector<std::pair<std::string, double>> counters;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      Captured c;
      c.name = run.benchmark_name();
      c.iterations = static_cast<int64_t>(run.iterations);
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      c.real_s_per_iter = run.real_accumulated_time / iters;
      c.cpu_s_per_iter = run.cpu_accumulated_time / iters;
      for (const auto& kv : run.counters) {
        c.counters.emplace_back(kv.first, static_cast<double>(kv.second));
      }
      captured.push_back(std::move(c));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<Captured> captured;
};

std::string ToJson(const std::vector<CaptureReporter::Captured>& results) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"micro\",\n  \"scale\": " << orpheus::g_micro_scale
      << ",\n  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CaptureReporter::Captured& r = results[i];
    out << "    {\"name\": \"" << bench::JsonEscape(r.name)
        << "\", \"iterations\": " << r.iterations
        << ", \"real_s_per_iter\": " << r.real_s_per_iter
        << ", \"cpu_s_per_iter\": " << r.cpu_s_per_iter;
    for (const auto& kv : r.counters) {
      out << ", \"" << bench::JsonEscape(kv.first) << "\": " << kv.second;
    }
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"metrics\": " << bench::MetricsJson("  ") << "\n}\n";
  return out.str();
}

}  // namespace
}  // namespace orpheus

// Custom main instead of BENCHMARK_MAIN(): google-benchmark strips its
// own --benchmark_* flags, then we parse the harness flags (--scale,
// --threads, --json) from what remains.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  orpheus::Flags flags(argc, argv);
  orpheus::g_micro_scale = flags.GetDouble("scale", 1.0);
  int64_t threads = flags.GetInt("threads", 0);
  orpheus::g_micro_threads = static_cast<int>(std::min<int64_t>(
      std::max<int64_t>(threads, 0), orpheus::kMaxExecThreads));
  orpheus::SetExecThreads(orpheus::g_micro_threads);
  orpheus::CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  std::string json_path = flags.GetString("json", "");
  if (!json_path.empty() &&
      !orpheus::bench::WriteJsonFile(json_path,
                                     orpheus::ToJson(reporter.captured))) {
    return 1;
  }
  return 0;
}
