// Cross-model equivalence property tests: on randomly generated
// versioned workloads (SCI and CUR), all five CVD data models must
// agree on what every version contains — same rid sets, same rows.
// This is the strongest correctness check on the data-model layer:
// the representations differ radically (arrays per record, arrays per
// version, per-version tables, deltas with tombstones), yet their
// observable behaviour must be identical.

#include <gtest/gtest.h>

#include <set>

#include "bench/bench_util.h"
#include "core/data_model.h"
#include "partition/lyresplit.h"
#include "partition/partition_store.h"
#include "workload/generator.h"

namespace orpheus::core {
namespace {

struct Case {
  wl::WorkloadKind kind;
  uint64_t seed;
};

class ModelEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(ModelEquivalenceTest, AllModelsAgreeOnEveryVersion) {
  wl::DatasetSpec spec;
  spec.kind = GetParam().kind;
  spec.seed = GetParam().seed;
  spec.num_versions = 40;
  spec.num_branches = 6;
  spec.inserts_per_version = 20;
  spec.num_attrs = 4;
  wl::Dataset data = wl::Generate(spec);

  constexpr DataModelKind kModels[] = {
      DataModelKind::kSplitByRlist, DataModelKind::kSplitByVlist,
      DataModelKind::kCombinedTable, DataModelKind::kDeltaBased,
      DataModelKind::kTablePerVersion,
  };

  // One database per model (their table namespaces would collide).
  std::vector<std::unique_ptr<rel::Database>> dbs;
  std::vector<std::unique_ptr<DataModel>> models;
  for (DataModelKind kind : kModels) {
    auto db = std::make_unique<rel::Database>();
    auto model = MakeDataModel(kind, db.get(), "cvd", data.DataSchema());
    ASSERT_TRUE(bench::PopulateModel(model.get(), data).ok())
        << DataModelKindName(kind);
    dbs.push_back(std::move(db));
    models.push_back(std::move(model));
  }

  for (const wl::VersionSpec& v : data.versions()) {
    std::set<RecordId> expected(v.rids.begin(), v.rids.end());
    for (size_t m = 0; m < models.size(); ++m) {
      SCOPED_TRACE(std::string(DataModelKindName(kModels[m])) + " v" +
                   std::to_string(v.vid));
      // rid sets agree with the generator's ground truth.
      auto rids = models[m]->VersionRecords(v.vid);
      ASSERT_TRUE(rids.ok()) << rids.status().ToString();
      std::set<RecordId> actual(rids.value().begin(), rids.value().end());
      EXPECT_EQ(actual, expected);

      // Materialized rows carry the right contents.
      auto rows = models[m]->VersionRows(v.vid);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      ASSERT_EQ(rows.value().num_rows(), v.rids.size());
      int rid_col = rows.value().schema().FindColumn("rid");
      int a1_col = rows.value().schema().FindColumn("a1");
      ASSERT_GE(rid_col, 0);
      ASSERT_GE(a1_col, 0);
      for (size_t r = 0; r < rows.value().num_rows(); ++r) {
        int64_t rid = rows.value().column(rid_col).ints()[r];
        EXPECT_EQ(rows.value().column(a1_col).ints()[r],
                  wl::Dataset::AttrValue(rid, 1));
      }
    }
  }
}

TEST_P(ModelEquivalenceTest, StorageOrderingInvariants) {
  wl::DatasetSpec spec;
  spec.kind = GetParam().kind;
  spec.seed = GetParam().seed + 500;
  spec.num_versions = 50;
  spec.num_branches = 5;
  spec.inserts_per_version = 30;
  spec.num_attrs = 6;
  wl::Dataset data = wl::Generate(spec);

  auto storage_of = [&](DataModelKind kind) {
    rel::Database db;
    auto model = MakeDataModel(kind, &db, "cvd", data.DataSchema());
    EXPECT_TRUE(bench::PopulateModel(model.get(), data).ok());
    return model->StorageBytes();
  };

  int64_t tpv = storage_of(DataModelKind::kTablePerVersion);
  int64_t rlist = storage_of(DataModelKind::kSplitByRlist);
  int64_t vlist = storage_of(DataModelKind::kSplitByVlist);
  int64_t combined = storage_of(DataModelKind::kCombinedTable);

  // Figure 3(a): table-per-version is far larger than the
  // deduplicating models (records appear in many versions each).
  EXPECT_GT(tpv, 3 * rlist);
  // The split/combined models are within a small factor of each other.
  EXPECT_LT(rlist, 2 * combined);
  EXPECT_LT(combined, 2 * vlist);
  EXPECT_LT(vlist, 2 * rlist + combined);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ModelEquivalenceTest,
    ::testing::Values(Case{wl::WorkloadKind::kSci, 11},
                      Case{wl::WorkloadKind::kSci, 222},
                      Case{wl::WorkloadKind::kCur, 33},
                      Case{wl::WorkloadKind::kCur, 4444}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.kind == wl::WorkloadKind::kSci ? "sci"
                                                                   : "cur") +
             "_" + std::to_string(info.param.seed);
    });

// Partition-store checkout agrees with the unpartitioned model for
// every version and every partitioning the optimizer can produce.
TEST(PartitionEquivalenceTest, PartitionedCheckoutMatchesModel) {
  wl::DatasetSpec spec;
  spec.num_versions = 60;
  spec.num_branches = 8;
  spec.inserts_per_version = 25;
  spec.num_attrs = 4;
  wl::Dataset data = wl::Generate(spec);

  rel::Database db;
  auto model = MakeDataModel(DataModelKind::kSplitByRlist, &db, "cvd",
                             data.DataSchema());
  ASSERT_TRUE(bench::PopulateModel(model.get(), data).ok());
  auto* rlist = dynamic_cast<SplitByRlistModel*>(model.get());

  for (double delta : {0.2, 0.6, 1.0}) {
    auto split = part::LyreSplit::Run(data.BuildGraph(), delta);
    ASSERT_TRUE(split.ok());
    part::PartitionStore store(&db, "part" + std::to_string(int(delta * 10)),
                               rlist->DataTable());
    std::map<VersionId, std::vector<RecordId>> rids;
    for (const wl::VersionSpec& v : data.versions()) rids[v.vid] = v.rids;
    ASSERT_TRUE(store.Build(split.value().partitioning, rids).ok());
    for (size_t i = 0; i < data.versions().size(); i += 7) {
      const wl::VersionSpec& v = data.versions()[i];
      std::string table =
          "eq" + std::to_string(int(delta * 10)) + "_" + std::to_string(i);
      ASSERT_TRUE(store.CheckoutVersion(v.vid, table).ok());
      auto rows = db.Execute("SELECT rid FROM " + table + " ORDER BY rid");
      ASSERT_TRUE(rows.ok());
      ASSERT_EQ(rows.value().num_rows(), v.rids.size());
      for (size_t r = 0; r < v.rids.size(); ++r) {
        EXPECT_EQ(rows.value().Get(r, 0).AsInt(), v.rids[r]);
      }
    }
  }
}

}  // namespace
}  // namespace orpheus::core
