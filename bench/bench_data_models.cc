// Figure 3 reproduction: storage size (a), commit time (b), and
// checkout time (c) across the five CVD data models, on SCI datasets
// of increasing size. Also reproduces the in-text §3.2 comparison:
// committing a version with 30% modified records under delta-based vs
// split-by-rlist.
//
// Paper shapes to reproduce (Figure 3):
//   (a) a-table-per-version ~10x the storage of the others
//   (b) combined-table and split-by-vlist orders of magnitude slower
//       commits than split-by-rlist; delta commit of an unchanged
//       version is cheap
//   (c) a-table-per-version fastest checkout; delta-based slowest;
//       split-by-rlist slightly faster than combined/vlist, growing
//       with dataset size
//   (text) at 30% modification, delta commit is slower than rlist
//       (paper: 8.16s vs 4.12s at 250K records).

#include <iostream>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "common/timer.h"

using namespace orpheus;         // NOLINT
using namespace orpheus::bench;  // NOLINT
using core::DataModelKind;

namespace {

constexpr DataModelKind kModels[] = {
    DataModelKind::kTablePerVersion, DataModelKind::kCombinedTable,
    DataModelKind::kSplitByVlist, DataModelKind::kSplitByRlist,
    DataModelKind::kDeltaBased,
};

struct ModelNumbers {
  int64_t storage_bytes = 0;
  double commit_seconds = 0;
  double checkout_seconds = 0;
};

// Populates a model with the dataset, then measures: checkout of the
// latest version, and a commit of that checkout back as a new version
// (the Figure 3 experiment).
Result<ModelNumbers> MeasureModel(DataModelKind kind, const wl::Dataset& data) {
  rel::Database db;
  std::string name = "m";
  auto model = core::MakeDataModel(kind, &db, name, data.DataSchema());
  ORPHEUS_RETURN_NOT_OK(PopulateModel(model.get(), data));

  ModelNumbers out;
  out.storage_bytes = model->StorageBytes();

  const wl::VersionSpec& latest = data.versions().back();
  WallTimer checkout_timer;
  ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk work_rows, model->VersionRows(latest.vid));
  ORPHEUS_RETURN_NOT_OK(db.AdoptTable("work", std::move(work_rows)));
  out.checkout_seconds = checkout_timer.ElapsedSeconds();

  // Commit the unchanged checkout back as a new version.
  core::VersionId next = static_cast<core::VersionId>(data.versions().size()) + 1;
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * work, db.GetTable("work"));
  WallTimer commit_timer;
  ORPHEUS_RETURN_NOT_OK(
      model->AddVersion(next, work->data(), latest.rids, rel::Chunk(), latest.vid));
  out.commit_seconds = commit_timer.ElapsedSeconds();
  return out;
}

struct RoundTrip {
  double checkout_seconds = 0;
  double commit_seconds = 0;
};

// One full checkout+commit round-trip: check out the latest version,
// modify `modified_fraction` of its rows (fresh rids and contents —
// what the record manager produces for modified rows), and commit the
// result back. The §3.2 in-text experiment is this at 0.3.
Result<RoundTrip> MeasureRoundTrip(DataModelKind kind, const wl::Dataset& data,
                                   double modified_fraction) {
  rel::Database db;
  auto model = core::MakeDataModel(kind, &db, "m", data.DataSchema());
  ORPHEUS_RETURN_NOT_OK(PopulateModel(model.get(), data));
  const wl::VersionSpec& latest = data.versions().back();
  RoundTrip out;
  WallTimer checkout_timer;
  ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk work_rows, model->VersionRows(latest.vid));
  ORPHEUS_RETURN_NOT_OK(db.AdoptTable("work", std::move(work_rows)));
  out.checkout_seconds = checkout_timer.ElapsedSeconds();

  std::vector<core::RecordId> rids = latest.rids;
  Rng rng(99);
  std::vector<uint32_t> modified_rows;
  core::RecordId next_rid = data.num_records();
  for (size_t i = 0; i < rids.size(); ++i) {
    if (rng.Bernoulli(modified_fraction)) {
      rids[i] = next_rid++;
      modified_rows.push_back(static_cast<uint32_t>(i));
    }
  }
  // Update the staged table's rid column accordingly and register
  // the new rows chunk.
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * staged, db.GetTable("work"));
  rel::Chunk& chunk = staged->mutable_chunk();
  for (size_t i = 0; i < rids.size(); ++i) {
    chunk.mutable_column(0).Set(i, rel::Value::Int(rids[i]));
  }
  rel::Chunk new_records(chunk.schema());
  new_records.GatherFrom(chunk, modified_rows);

  core::VersionId next = static_cast<core::VersionId>(data.versions().size()) + 1;
  WallTimer timer;
  ORPHEUS_RETURN_NOT_OK(
      model->AddVersion(next, chunk, rids, new_records, latest.vid));
  out.commit_seconds = timer.ElapsedSeconds();
  return out;
}

// The delta model's structural weakness: checkout cost grows with
// lineage depth, and the fix — compacting a deep version into a fresh
// base delta — costs a full materialization plus duplicated storage.
// This measures all three sides of that trade.
struct DeltaCompaction {
  int depth = 0;                   // lineage length of the deepest version
  double deep_checkout_seconds = 0;
  double root_checkout_seconds = 0;
  double compact_seconds = 0;      // materialize + re-add as fresh base
  double compacted_checkout_seconds = 0;
  int64_t storage_before = 0;
  int64_t storage_after = 0;
};

Result<DeltaCompaction> MeasureDeltaCompaction(const wl::Dataset& data) {
  rel::Database db;
  auto model = core::MakeDataModel(DataModelKind::kDeltaBased, &db, "m",
                                   data.DataSchema());
  ORPHEUS_RETURN_NOT_OK(PopulateModel(model.get(), data));

  // Recompute each version's delta-lineage depth (base = max-weight
  // parent, the same rule PopulateModel applied).
  std::map<core::VersionId, int> depth;
  core::VersionId deepest = data.versions().front().vid;
  for (const wl::VersionSpec& v : data.versions()) {
    if (v.parents.empty()) {
      depth[v.vid] = 1;
      continue;
    }
    size_t best = 0;
    for (size_t p = 1; p < v.parents.size(); ++p) {
      if (v.parent_weights[p] > v.parent_weights[best]) best = p;
    }
    depth[v.vid] = depth[v.parents[best]] + 1;
    if (depth[v.vid] > depth[deepest]) deepest = v.vid;
  }

  DeltaCompaction out;
  out.depth = depth[deepest];
  out.storage_before = model->StorageBytes();
  {
    WallTimer timer;
    ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk deep_rows, model->VersionRows(deepest));
    ORPHEUS_RETURN_NOT_OK(db.AdoptTable("deep", std::move(deep_rows)));
    out.deep_checkout_seconds = timer.ElapsedSeconds();
  }
  {
    WallTimer timer;
    ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk root_rows,
                             model->VersionRows(data.versions().front().vid));
    ORPHEUS_RETURN_NOT_OK(db.AdoptTable("root", std::move(root_rows)));
    out.root_checkout_seconds = timer.ElapsedSeconds();
  }
  // Compaction: re-register the materialized deep version as a fresh
  // base (primary_parent = -1), collapsing its lineage to depth 1.
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<core::RecordId> deep_rids,
                           model->VersionRecords(deepest));
  core::VersionId compacted =
      static_cast<core::VersionId>(data.versions().size()) + 1;
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * deep, db.GetTable("deep"));
  {
    WallTimer timer;
    ORPHEUS_RETURN_NOT_OK(model->AddVersion(compacted, deep->data(), deep_rids,
                                            rel::Chunk(), /*primary_parent=*/-1));
    out.compact_seconds = timer.ElapsedSeconds();
  }
  out.storage_after = model->StorageBytes();
  {
    WallTimer timer;
    ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk compacted_rows, model->VersionRows(compacted));
    ORPHEUS_RETURN_NOT_OK(db.AdoptTable("compacted", std::move(compacted_rows)));
    out.compacted_checkout_seconds = timer.ElapsedSeconds();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 1.0);
  std::vector<std::string> points;  // for --json

  std::vector<wl::DatasetSpec> specs = {
      Scaled(SmallSpec(wl::WorkloadKind::kSci), scale),
      Scaled(MediumSpec(wl::WorkloadKind::kSci), scale),
      Scaled(LargeSpec(wl::WorkloadKind::kSci), scale),
  };

  std::cout << "=== Figure 3: data model comparison (storage / commit /"
               " checkout) ===\n\n";
  for (const wl::DatasetSpec& spec : specs) {
    wl::Dataset data = wl::Generate(spec);
    std::cout << spec.Name() << "  (|V|=" << data.versions().size()
              << ", |R|=" << WithThousandsSep(data.num_records())
              << ", |E|=" << WithThousandsSep(data.num_edges()) << ")\n";
    TablePrinter table({"Model", "Storage", "Commit", "Checkout"});
    for (DataModelKind kind : kModels) {
      auto r = MeasureModel(kind, data);
      if (!r.ok()) {
        std::cerr << "error: " << r.status().ToString() << "\n";
        return 1;
      }
      table.AddRow({core::DataModelKindName(kind),
                    FormatBytes(r.value().storage_bytes),
                    FormatSeconds(r.value().commit_seconds),
                    FormatSeconds(r.value().checkout_seconds)});
      points.push_back(StrFormat(
          "{\"experiment\": \"figure3\", \"dataset\": \"%s\", \"model\": "
          "\"%s\", \"storage_bytes\": %lld, \"commit_seconds\": %g, "
          "\"checkout_seconds\": %g}",
          spec.Name().c_str(), core::DataModelKindName(kind),
          static_cast<long long>(r.value().storage_bytes),
          r.value().commit_seconds, r.value().checkout_seconds));
    }
    table.Print();
    std::cout << "\n";
  }

  std::cout << "=== §3.2 in-text: commit with 30% modified records ===\n";
  wl::Dataset medium = wl::Generate(Scaled(MediumSpec(wl::WorkloadKind::kSci), scale));
  {
    TablePrinter table({"Model", "Commit (30% modified)"});
    for (DataModelKind kind :
         {DataModelKind::kDeltaBased, DataModelKind::kSplitByRlist}) {
      auto r = MeasureRoundTrip(kind, medium, 0.3);
      if (!r.ok()) {
        std::cerr << "error: " << r.status().ToString() << "\n";
        return 1;
      }
      table.AddRow({core::DataModelKindName(kind),
                    FormatSeconds(r.value().commit_seconds)});
      points.push_back(StrFormat(
          "{\"experiment\": \"commit_30pct\", \"model\": \"%s\", "
          "\"commit_seconds\": %g}",
          core::DataModelKindName(kind), r.value().commit_seconds));
    }
    table.Print();
    std::cout << "\nPaper: delta 8.16s vs rlist 4.12s at 250K records — delta"
                 " should be slower here too.\n";
  }

  // Full checkout + 30%-modified commit round-trips, all five models,
  // at LargeSpec scale (ROADMAP item).
  std::cout << "\n=== Checkout+commit round-trip, all models, LargeSpec ===\n";
  wl::Dataset large = wl::Generate(Scaled(LargeSpec(wl::WorkloadKind::kSci), scale));
  std::cout << "(|V|=" << large.versions().size()
            << ", |R|=" << WithThousandsSep(large.num_records()) << ")\n";
  {
    TablePrinter table({"Model", "Checkout", "Commit (30% modified)"});
    for (DataModelKind kind : kModels) {
      auto r = MeasureRoundTrip(kind, large, 0.3);
      if (!r.ok()) {
        std::cerr << "error: " << r.status().ToString() << "\n";
        return 1;
      }
      table.AddRow({core::DataModelKindName(kind),
                    FormatSeconds(r.value().checkout_seconds),
                    FormatSeconds(r.value().commit_seconds)});
      points.push_back(StrFormat(
          "{\"experiment\": \"round_trip_30pct\", \"model\": \"%s\", "
          "\"checkout_seconds\": %g, \"commit_seconds\": %g}",
          core::DataModelKindName(kind), r.value().checkout_seconds,
          r.value().commit_seconds));
    }
    table.Print();
  }

  // The delta model's compaction trade-off at LargeSpec scale.
  std::cout << "\n=== Delta-based model: lineage depth and compaction cost ===\n";
  auto compaction = MeasureDeltaCompaction(large);
  if (!compaction.ok()) {
    std::cerr << "error: " << compaction.status().ToString() << "\n";
    return 1;
  }
  const DeltaCompaction& dc = compaction.value();
  TablePrinter table({"Metric", "Value"});
  table.AddRow({"deepest lineage", std::to_string(dc.depth) + " deltas"});
  table.AddRow({"checkout @ depth " + std::to_string(dc.depth),
                FormatSeconds(dc.deep_checkout_seconds)});
  table.AddRow({"checkout @ depth 1", FormatSeconds(dc.root_checkout_seconds)});
  table.AddRow({"compaction (materialize + re-base)",
                FormatSeconds(dc.compact_seconds)});
  table.AddRow({"checkout after compaction",
                FormatSeconds(dc.compacted_checkout_seconds)});
  table.AddRow({"storage before", FormatBytes(dc.storage_before)});
  table.AddRow({"storage after", FormatBytes(dc.storage_after)});
  table.Print();
  std::cout << "\nReplay cost scales with lineage depth; compaction buys the"
               " depth-1 checkout back at the price of one full"
               " materialization and a duplicated record set.\n";
  points.push_back(StrFormat(
      "{\"experiment\": \"delta_compaction\", \"depth\": %d, "
      "\"deep_checkout_seconds\": %g, \"root_checkout_seconds\": %g, "
      "\"compact_seconds\": %g, \"compacted_checkout_seconds\": %g, "
      "\"storage_before\": %lld, \"storage_after\": %lld}",
      dc.depth, dc.deep_checkout_seconds, dc.root_checkout_seconds,
      dc.compact_seconds, dc.compacted_checkout_seconds,
      static_cast<long long>(dc.storage_before),
      static_cast<long long>(dc.storage_after)));
  std::string json_path = flags.GetString("json", "");
  if (!json_path.empty() &&
      !WriteJsonFile(json_path, BenchJson("data_models", points))) {
    return 1;
  }
  return 0;
}
