// Figures 12 & 13 reproduction: checkout time and storage size with
// and without partitioning, for γ = 1.5|R| and γ = 2|R|, on SCI_*
// (Figure 12) and CUR_* (Figure 13) datasets.
//
// Paper shape: with a ~2x storage increase, checkout time drops by
// 3-21x (growing with dataset size); partitioned checkout time stays
// nearly flat as the dataset grows, unpartitioned grows linearly.

#include <iostream>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/str_util.h"
#include "partition/lyresplit.h"
#include "partition/partition_store.h"

using namespace orpheus;         // NOLINT
using namespace orpheus::bench;  // NOLINT

namespace {

struct CheckoutCost {
  double seconds = 0;       // mean wall time per checkout
  int64_t rows_touched = 0; // mean rows scanned/probed per checkout
};

Result<CheckoutCost> AvgCheckoutUnpartitioned(
    rel::Database* db, core::DataModel* model,
    const std::vector<core::VersionId>& sample) {
  db->ResetStats();
  WallTimer timer;
  int count = 0;
  for (core::VersionId vid : sample) {
    std::string table = "u" + std::to_string(count++);
    ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk rows, model->VersionRows(vid));
    ORPHEUS_RETURN_NOT_OK(db->AdoptTable(table, std::move(rows)));
    ORPHEUS_RETURN_NOT_OK(db->DropTable(table));
  }
  CheckoutCost cost;
  cost.seconds = timer.ElapsedSeconds() / static_cast<double>(sample.size());
  cost.rows_touched =
      db->stats()->rows_scanned / static_cast<int64_t>(sample.size());
  return cost;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 1.0);
  int sample_count = static_cast<int>(flags.GetInt("sample", 20));

  // These specs skew toward many versions over few records — the
  // paper's regime (SCI_10M: |R| / avg-version-size ~ 180). A version
  // then touches a small fraction of the data table, which is exactly
  // when partitioning pays off.
  auto make_spec = [&](wl::WorkloadKind kind, int versions, int inserts) {
    wl::DatasetSpec spec;
    spec.kind = kind;
    spec.num_versions = static_cast<int>(versions * scale);
    spec.num_branches = spec.num_versions / 8;
    spec.inserts_per_version = inserts;
    spec.num_attrs = 6;
    return spec;
  };
  std::vector<wl::DatasetSpec> specs = {
      make_spec(wl::WorkloadKind::kSci, 300, 40),
      make_spec(wl::WorkloadKind::kSci, 600, 50),
      make_spec(wl::WorkloadKind::kSci, 1000, 60),
      make_spec(wl::WorkloadKind::kCur, 300, 40),
      make_spec(wl::WorkloadKind::kCur, 600, 50),
      make_spec(wl::WorkloadKind::kCur, 1000, 60),
  };

  std::cout << "=== Figures 12/13: checkout time & storage, with vs without"
               " partitioning ===\n\n";
  TablePrinter table({"Dataset", "Scheme", "Checkout (avg)", "Rows touched",
                      "Storage", "Partitions", "Speedup"});
  std::vector<std::string> points;  // for --json
  auto add_point = [&points](const std::string& dataset, const char* scheme,
                             double gamma_factor, double seconds,
                             int64_t rows_touched, int64_t storage_bytes,
                             int partitions, double speedup) {
    points.push_back(StrFormat(
        "{\"dataset\": \"%s\", \"scheme\": \"%s\", \"gamma_factor\": %g, "
        "\"checkout_seconds\": %g, \"rows_touched\": %lld, "
        "\"storage_bytes\": %lld, \"partitions\": %d, \"speedup\": %g}",
        dataset.c_str(), scheme, gamma_factor, seconds,
        static_cast<long long>(rows_touched),
        static_cast<long long>(storage_bytes), partitions, speedup));
  };

  for (const wl::DatasetSpec& spec : specs) {
    wl::Dataset data = wl::Generate(spec);
    rel::Database db;
    // Unpartitioned split-by-rlist CVD.
    auto model = core::MakeDataModel(core::DataModelKind::kSplitByRlist, &db,
                                     "cvd", data.DataSchema());
    Status st = PopulateModel(model.get(), data);
    if (!st.ok()) {
      std::cerr << "populate: " << st.ToString() << "\n";
      return 1;
    }
    std::vector<core::VersionId> sample = SampleVersions(data, sample_count, 17);

    auto base = AvgCheckoutUnpartitioned(&db, model.get(), sample);
    if (!base.ok()) {
      std::cerr << base.status().ToString() << "\n";
      return 1;
    }
    int64_t base_bytes = model->StorageBytes();
    table.AddRow({spec.Name(), "no partitioning",
                  FormatSeconds(base.value().seconds),
                  WithThousandsSep(base.value().rows_touched),
                  FormatBytes(base_bytes), "1", "1.0x"});
    add_point(spec.Name(), "unpartitioned", 0, base.value().seconds,
              base.value().rows_touched, base_bytes, 1, 1.0);

    // Budgets are multiples of the tree-model floor (= |R| for SCI;
    // |R| + |R^| for CUR after the DAG -> tree conversion).
    core::VersionGraph graph = data.BuildGraph();
    auto floor_records = part::LyreSplit::TreeModelRecords(graph);
    if (!floor_records.ok()) {
      std::cerr << floor_records.status().ToString() << "\n";
      return 1;
    }
    for (double factor : {1.5, 2.0}) {
      int64_t gamma = static_cast<int64_t>(
          factor * static_cast<double>(floor_records.value()));
      auto split = part::LyreSplit::RunForBudget(graph, gamma);
      if (!split.ok()) {
        std::cerr << split.status().ToString() << "\n";
        return 1;
      }
      auto* rlist = dynamic_cast<core::SplitByRlistModel*>(model.get());
      part::PartitionStore store(&db, "cvd", rlist->DataTable());
      std::map<core::VersionId, std::vector<core::RecordId>> rids;
      for (const wl::VersionSpec& v : data.versions()) rids[v.vid] = v.rids;
      st = store.Build(split.value().partitioning, rids);
      if (!st.ok()) {
        std::cerr << "build: " << st.ToString() << "\n";
        return 1;
      }
      db.ResetStats();
      WallTimer timer;
      int count = 0;
      for (core::VersionId vid : sample) {
        std::string tbl = "p" + std::to_string(count++);
        if (!store.CheckoutVersion(vid, tbl).ok()) return 1;
        if (!db.DropTable(tbl).ok()) return 1;
      }
      double part_time = timer.ElapsedSeconds() / sample.size();
      int64_t part_rows =
          db.stats()->rows_scanned / static_cast<int64_t>(sample.size());
      // Partitioned storage: sum of partition data tables (the
      // versioning-table size is constant across schemes, as in §5.2).
      int64_t part_bytes = 0;
      for (const std::string& name : db.ListTables()) {
        if (name.rfind("cvd_p", 0) == 0) {
          auto t = db.GetTable(name);
          if (t.ok()) part_bytes += t.value()->ByteSize() + t.value()->IndexByteSize();
        }
      }
      table.AddRow({spec.Name(),
                    StrFormat("LyreSplit (g=%.1f|R|)", factor),
                    FormatSeconds(part_time), WithThousandsSep(part_rows),
                    FormatBytes(part_bytes),
                    std::to_string(store.num_partitions()),
                    StrFormat("%.1fx", base.value().seconds / part_time)});
      add_point(spec.Name(), "lyresplit", factor, part_time, part_rows,
                part_bytes, static_cast<int>(store.num_partitions()),
                base.value().seconds / part_time);
      if (!store.DropAll().ok()) return 1;
    }
  }
  table.Print();
  std::cout << "\nExpected shape: partitioned checkout is several times"
               " faster, with the gap widening on larger datasets, for ~2x"
               " storage.\n";
  std::string json_path = flags.GetString("json", "");
  if (!json_path.empty() &&
      !WriteJsonFile(json_path, BenchJson("partition_benefit", points))) {
    return 1;
  }
  return 0;
}
