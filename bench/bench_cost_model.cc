// Figures 20-23 (Appendix D.2) reproduction: the estimated cost model
// vs reality.
//
//  - Figures 20/21: estimated storage cost vs estimated checkout cost
//    (the model-side view of the Figure 9 trade-off), SCI and CUR.
//  - Figures 22/23: estimated checkout cost vs real checkout time —
//    the points should form a straight line (the paper's validation
//    that Cavg ∝ wall time). We report a least-squares linear fit and
//    Pearson correlation per dataset.

#include <cmath>
#include <iostream>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/str_util.h"
#include "partition/baselines.h"
#include "partition/lyresplit.h"
#include "partition/partition_store.h"

using namespace orpheus;         // NOLINT
using namespace orpheus::bench;  // NOLINT

namespace {

struct SweepPoint {
  std::string algorithm;
  int64_t est_storage;
  double est_checkout;
  double measured_seconds;
};

Result<double> MeasureCheckout(rel::Database* db, const wl::Dataset& data,
                               const part::Partitioning& partitioning,
                               const std::vector<core::VersionId>& sample) {
  part::PartitionStore store(db, "cm", "src_data");
  std::map<core::VersionId, std::vector<core::RecordId>> rids;
  for (const wl::VersionSpec& v : data.versions()) rids[v.vid] = v.rids;
  ORPHEUS_RETURN_NOT_OK(store.Build(partitioning, rids));
  // Two passes; the first warms indexes and allocator state, the
  // second is timed (as the paper warms the buffer cache per trial).
  double best = 1e18;
  for (int pass = 0; pass < 2; ++pass) {
    WallTimer timer;
    int count = 0;
    for (core::VersionId vid : sample) {
      std::string table = "c" + std::to_string(count++);
      ORPHEUS_RETURN_NOT_OK(store.CheckoutVersion(vid, table));
      ORPHEUS_RETURN_NOT_OK(db->DropTable(table));
    }
    best = std::min(best, timer.ElapsedSeconds() /
                              static_cast<double>(sample.size()));
  }
  return best;
}

Result<std::vector<SweepPoint>> Sweep(const wl::Dataset& data) {
  part::BipartiteGraph bip = data.BuildBipartite();
  core::VersionGraph graph = data.BuildGraph();
  rel::Database db;
  ORPHEUS_RETURN_NOT_OK(db.AdoptTable("src_data", data.AllRecordRows(), {"rid"}));
  std::vector<core::VersionId> sample = SampleVersions(data, 30, 23);

  std::vector<SweepPoint> points;
  for (double delta : {0.05, 0.15, 0.3, 0.5, 0.8}) {
    ORPHEUS_ASSIGN_OR_RETURN(part::LyreSplitResult r,
                             part::LyreSplit::Run(graph, delta));
    part::Partitioning p = std::move(r.partitioning);
    ORPHEUS_RETURN_NOT_OK(p.ComputeCosts(bip));
    ORPHEUS_ASSIGN_OR_RETURN(double seconds, MeasureCheckout(&db, data, p, sample));
    points.push_back({"LyreSplit", p.storage_cost, p.avg_checkout_cost, seconds});
  }
  for (int64_t factor : {8, 4, 2}) {
    part::AggloOptions options;
    options.capacity = data.num_records() / factor;
    ORPHEUS_ASSIGN_OR_RETURN(part::Partitioning p, part::RunAgglo(bip, options));
    ORPHEUS_ASSIGN_OR_RETURN(double seconds, MeasureCheckout(&db, data, p, sample));
    points.push_back({"AGGLO", p.storage_cost, p.avg_checkout_cost, seconds});
  }
  for (int k : {4, 12, 32}) {
    part::KMeansOptions options;
    options.k = k;
    ORPHEUS_ASSIGN_OR_RETURN(part::Partitioning p, part::RunKMeans(bip, options));
    ORPHEUS_ASSIGN_OR_RETURN(double seconds, MeasureCheckout(&db, data, p, sample));
    points.push_back({"KMEANS", p.storage_cost, p.avg_checkout_cost, seconds});
  }
  return points;
}

// Pearson correlation between estimated checkout cost and wall time.
double Correlation(const std::vector<SweepPoint>& points) {
  double n = static_cast<double>(points.size());
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  for (const SweepPoint& p : points) {
    double x = p.est_checkout;
    double y = p.measured_seconds;
    sx += x;
    sy += y;
    sxx += x * x;
    syy += y * y;
    sxy += x * y;
  }
  double cov = sxy - sx * sy / n;
  double vx = sxx - sx * sx / n;
  double vy = syy - sy * sy / n;
  if (vx <= 0 || vy <= 0) return 0;
  return cov / std::sqrt(vx * vy);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 1.0);

  // Scan-dominated regime (few attributes, many versions relative to
  // records), so wall time tracks the |Rk| cost model as in the
  // paper's disk-resident setting.
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

  std::cout << "=== Figures 20-23: estimated vs real cost ===\n\n";
  std::vector<std::string> json_points;  // for --json
  for (const wl::DatasetSpec& spec : specs) {
    wl::Dataset data = wl::Generate(spec);
    auto points = Sweep(data);
    if (!points.ok()) {
      std::cerr << "error: " << points.status().ToString() << "\n";
      return 1;
    }
    std::cout << spec.Name() << "\n";
    TablePrinter table({"Algorithm", "Est. S (records)", "Est. Cavg",
                        "Measured checkout"});
    double correlation = Correlation(points.value());
    for (const SweepPoint& p : points.value()) {
      table.AddRow({p.algorithm, WithThousandsSep(p.est_storage),
                    StrFormat("%.0f", p.est_checkout),
                    FormatSeconds(p.measured_seconds)});
      json_points.push_back(StrFormat(
          "{\"dataset\": \"%s\", \"algorithm\": \"%s\", "
          "\"est_storage_records\": %lld, \"est_checkout_cost\": %g, "
          "\"measured_seconds\": %g, \"dataset_correlation\": %g}",
          spec.Name().c_str(), p.algorithm.c_str(),
          static_cast<long long>(p.est_storage), p.est_checkout,
          p.measured_seconds, correlation));
    }
    table.Print();
    std::cout << StrFormat(
        "Pearson correlation (est. Cavg vs measured time): %.3f\n\n",
        correlation);
  }
  std::cout << "Expected: trade-off trend identical to Figure 9; correlation"
               " close to 1 (checkout time linear in the cost model).\n";
  std::string json_path = flags.GetString("json", "");
  if (!json_path.empty() &&
      !WriteJsonFile(json_path, BenchJson("cost_model", json_points))) {
    return 1;
  }
  return 0;
}
