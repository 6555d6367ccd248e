// Figure 9 reproduction: the storage-size vs checkout-time trade-off
// for LYRESPLIT (sweeping δ), AGGLO (sweeping BC), and KMEANS
// (sweeping K), on SCI and CUR datasets.
//
// Each sweep point reports the model storage cost S (records), the
// model checkout cost Cavg (records), and a measured average checkout
// wall time over sampled versions with the partitioning actually
// materialized.
//
// Paper shape: all curves fall then flatten as storage grows;
// LYRESPLIT dominates (lower checkout time at equal storage),
// especially at small budgets.

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/str_util.h"
#include "partition/baselines.h"
#include "partition/lyresplit.h"
#include "partition/partition_store.h"

using namespace orpheus;         // NOLINT
using namespace orpheus::bench;  // NOLINT

namespace {

// Builds the partitioning physically and measures mean checkout time.
Result<double> MeasureCheckout(rel::Database* db, const wl::Dataset& data,
                               const part::Partitioning& partitioning,
                               const std::vector<core::VersionId>& sample) {
  part::PartitionStore store(db, "sweep", "src_data");
  std::map<core::VersionId, std::vector<core::RecordId>> rids;
  for (const wl::VersionSpec& v : data.versions()) rids[v.vid] = v.rids;
  ORPHEUS_RETURN_NOT_OK(store.Build(partitioning, rids));
  // First pass warms lazily built indexes; second pass is timed.
  double best = 1e18;
  for (int pass = 0; pass < 2; ++pass) {
    WallTimer timer;
    int count = 0;
    for (core::VersionId vid : sample) {
      std::string table = "chk" + std::to_string(count++);
      ORPHEUS_RETURN_NOT_OK(store.CheckoutVersion(vid, table));
      ORPHEUS_RETURN_NOT_OK(db->DropTable(table));
    }
    best = std::min(best,
                    timer.ElapsedSeconds() / static_cast<double>(sample.size()));
  }
  return best;
}

// One sweep point of the Figure 9 panels, kept for --json.
struct TradeoffPoint {
  std::string dataset;
  std::string algorithm;
  std::string param;
  size_t partitions = 0;
  int64_t storage_records = 0;
  double avg_checkout_records = 0;
  double checkout_s = 0;
};

std::string ToJson(const std::vector<TradeoffPoint>& points) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"tradeoff\",\n  \"points\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const TradeoffPoint& p = points[i];
    out << "    {\"dataset\": \"" << JsonEscape(p.dataset)
        << "\", \"algorithm\": \"" << p.algorithm << "\", \"param\": \""
        << JsonEscape(p.param) << "\", \"partitions\": " << p.partitions
        << ", \"storage_records\": " << p.storage_records
        << ", \"avg_checkout_records\": " << p.avg_checkout_records
        << ", \"checkout_s\": " << p.checkout_s << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"metrics\": " << MetricsJson("  ") << "\n}\n";
  return out.str();
}

Status RunPanel(const wl::DatasetSpec& spec, int sample_count,
                std::vector<TradeoffPoint>* points) {
  wl::Dataset data = wl::Generate(spec);
  part::BipartiteGraph bip = data.BuildBipartite();
  core::VersionGraph graph = data.BuildGraph();

  rel::Database db;
  ORPHEUS_RETURN_NOT_OK(db.AdoptTable("src_data", data.AllRecordRows(), {"rid"}));
  std::vector<core::VersionId> sample = SampleVersions(data, sample_count, 5);

  std::cout << spec.Name() << "  (|R|=" << WithThousandsSep(data.num_records())
            << ", |E|=" << WithThousandsSep(data.num_edges())
            << ", min Cavg=" << StrFormat("%.0f", bip.MinCheckoutCost())
            << ")\n";
  TablePrinter table({"Algorithm", "Param", "Partitions", "S (records)",
                      "Cavg (records)", "Checkout (measured)"});

  for (double delta : {0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0}) {
    ORPHEUS_ASSIGN_OR_RETURN(part::LyreSplitResult r,
                             part::LyreSplit::Run(graph, delta));
    part::Partitioning p = std::move(r.partitioning);
    ORPHEUS_RETURN_NOT_OK(p.ComputeCosts(bip));
    ORPHEUS_ASSIGN_OR_RETURN(double seconds,
                             MeasureCheckout(&db, data, p, sample));
    table.AddRow({"LyreSplit", StrFormat("d=%.2f", delta),
                  std::to_string(p.num_partitions()),
                  WithThousandsSep(p.storage_cost),
                  StrFormat("%.0f", p.avg_checkout_cost),
                  FormatSeconds(seconds)});
    points->push_back({spec.Name(), "lyresplit", StrFormat("d=%.2f", delta),
                       p.num_partitions(), p.storage_cost,
                       p.avg_checkout_cost, seconds});
  }
  for (int64_t factor : {12, 6, 3, 2}) {
    part::AggloOptions options;
    options.capacity = data.num_records() / factor;
    ORPHEUS_ASSIGN_OR_RETURN(part::Partitioning p,
                             part::RunAgglo(bip, options));
    ORPHEUS_ASSIGN_OR_RETURN(double seconds,
                             MeasureCheckout(&db, data, p, sample));
    table.AddRow({"AGGLO", "BC=|R|/" + std::to_string(factor),
                  std::to_string(p.num_partitions()),
                  WithThousandsSep(p.storage_cost),
                  StrFormat("%.0f", p.avg_checkout_cost),
                  FormatSeconds(seconds)});
    points->push_back({spec.Name(), "agglo",
                       "BC=|R|/" + std::to_string(factor),
                       p.num_partitions(), p.storage_cost,
                       p.avg_checkout_cost, seconds});
  }
  for (int k : {2, 4, 8, 16, 32}) {
    part::KMeansOptions options;
    options.k = k;
    ORPHEUS_ASSIGN_OR_RETURN(part::Partitioning p, part::RunKMeans(bip, options));
    ORPHEUS_ASSIGN_OR_RETURN(double seconds,
                             MeasureCheckout(&db, data, p, sample));
    table.AddRow({"KMEANS", "K=" + std::to_string(k),
                  std::to_string(p.num_partitions()),
                  WithThousandsSep(p.storage_cost),
                  StrFormat("%.0f", p.avg_checkout_cost),
                  FormatSeconds(seconds)});
    points->push_back({spec.Name(), "kmeans", "K=" + std::to_string(k),
                       p.num_partitions(), p.storage_cost,
                       p.avg_checkout_cost, seconds});
  }
  table.Print();
  std::cout << "\n";
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 1.0);
  int sample_count = static_cast<int>(flags.GetInt("sample", 15));

  std::cout << "=== Figure 9: storage vs checkout-time trade-off ===\n\n";
  // Scan-dominated regime (few attributes, many versions) so measured
  // times track the cost model as in the paper's disk-resident setup.
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
      make_spec(wl::WorkloadKind::kSci, 400, 40),
      make_spec(wl::WorkloadKind::kSci, 800, 50),
      make_spec(wl::WorkloadKind::kCur, 400, 40),
      make_spec(wl::WorkloadKind::kCur, 800, 50),
  };
  std::vector<TradeoffPoint> points;
  for (const wl::DatasetSpec& spec : specs) {
    Status st = RunPanel(spec, sample_count, &points);
    if (!st.ok()) {
      std::cerr << "error: " << st.ToString() << "\n";
      return 1;
    }
  }
  std::cout << "Expected shape: checkout falls then flattens as S grows;"
               " at equal S, LyreSplit's Cavg/time is lowest.\n";
  std::string json_path = flags.GetString("json", "");
  if (!json_path.empty() && !WriteJsonFile(json_path, ToJson(points))) {
    return 1;
  }
  return 0;
}
