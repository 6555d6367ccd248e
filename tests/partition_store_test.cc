// Tests for the physical partition store, online maintenance, and the
// migration engine, end-to-end against the relstore backend.

#include <gtest/gtest.h>

#include <numeric>

#include "partition/online.h"
#include "partition/partition_store.h"
#include "workload/generator.h"

namespace orpheus::part {
namespace {

class PartitionStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wl::DatasetSpec spec;
    spec.num_versions = 60;
    spec.num_branches = 8;
    spec.inserts_per_version = 30;
    spec.num_attrs = 4;
    data_ = wl::Generate(spec);
    // Load the record universe as the CVD data table.
    ASSERT_TRUE(db_.AdoptTable("cvd_data", data_.AllRecordRows(), {"rid"}).ok());
  }

  std::map<VersionId, std::vector<RecordId>> VersionRids() const {
    std::map<VersionId, std::vector<RecordId>> out;
    for (const wl::VersionSpec& v : data_.versions()) out[v.vid] = v.rids;
    return out;
  }

  Partitioning TwoWaySplit() const {
    Partitioning p;
    p.groups.resize(2);
    for (const wl::VersionSpec& v : data_.versions()) {
      p.groups[static_cast<size_t>(v.vid % 2)].push_back(v.vid);
    }
    return p;
  }

  rel::Database db_;
  wl::Dataset data_;
};

TEST_F(PartitionStoreTest, BuildCreatesPartitionTables) {
  PartitionStore store(&db_, "cvd", "cvd_data");
  ASSERT_TRUE(store.Build(TwoWaySplit(), VersionRids()).ok());
  EXPECT_EQ(store.num_partitions(), 2u);
  EXPECT_TRUE(db_.HasTable("cvd_p0_data"));
  EXPECT_TRUE(db_.HasTable("cvd_p1_rlist"));
  EXPECT_GE(store.StorageRecords(), data_.num_records());
}

TEST_F(PartitionStoreTest, CheckoutMatchesVersionRecords) {
  PartitionStore store(&db_, "cvd", "cvd_data");
  ASSERT_TRUE(store.Build(TwoWaySplit(), VersionRids()).ok());
  const wl::VersionSpec& v = data_.versions().back();
  ASSERT_TRUE(store.CheckoutVersion(v.vid, "out").ok());
  auto count = db_.Execute("SELECT count(*) FROM out");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value().Get(0, 0).AsInt(),
            static_cast<int64_t>(v.rids.size()));
}

TEST_F(PartitionStoreTest, TablesForRoutesToOwningPartition) {
  PartitionStore store(&db_, "cvd", "cvd_data");
  ASSERT_TRUE(store.Build(TwoWaySplit(), VersionRids()).ok());
  auto tables = store.TablesFor(2);  // vid 2 -> group 0
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ(tables.value().first, "cvd_p0_data");
  EXPECT_FALSE(store.TablesFor(9999).ok());
}

TEST_F(PartitionStoreTest, OnlineAdditions) {
  PartitionStore store(&db_, "cvd", "cvd_data");
  // Start with the first half of the versions in one partition.
  Partitioning initial;
  initial.groups.resize(1);
  std::map<VersionId, std::vector<RecordId>> rids;
  size_t half = data_.versions().size() / 2;
  for (size_t i = 0; i < half; ++i) {
    initial.groups[0].push_back(data_.versions()[i].vid);
    rids[data_.versions()[i].vid] = data_.versions()[i].rids;
  }
  ASSERT_TRUE(store.Build(initial, rids).ok());

  const wl::VersionSpec& next = data_.versions()[half];
  ASSERT_TRUE(store.AddVersionToPartition(next.vid, 0, next.rids).ok());
  EXPECT_EQ(store.PartitionOf(next.vid).value(), 0u);

  const wl::VersionSpec& after = data_.versions()[half + 1];
  auto k = store.AddVersionAsNewPartition(after.vid, after.rids);
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(store.num_partitions(), 2u);
  ASSERT_TRUE(store.CheckoutVersion(after.vid, "chk").ok());
  auto count = db_.Execute("SELECT count(*) FROM chk");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value().Get(0, 0).AsInt(),
            static_cast<int64_t>(after.rids.size()));
  // Duplicate placement rejected.
  EXPECT_FALSE(store.AddVersionToPartition(after.vid, 0, after.rids).ok());
}

TEST_F(PartitionStoreTest, MigrationPreservesCheckoutSemantics) {
  for (bool intelligent : {false, true}) {
    SCOPED_TRACE(intelligent ? "intelligent" : "naive");
    PartitionStore store(&db_, intelligent ? "cvdi" : "cvdn", "cvd_data");
    ASSERT_TRUE(store.Build(TwoWaySplit(), VersionRids()).ok());

    // New target: 3 partitions by vid % 3.
    Partitioning target;
    target.groups.resize(3);
    for (const wl::VersionSpec& v : data_.versions()) {
      target.groups[static_cast<size_t>(v.vid % 3)].push_back(v.vid);
    }
    auto stats = store.Migrate(target, intelligent);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(store.num_partitions(), 3u);

    // Every version still checks out with the right record count.
    for (size_t i = 0; i < data_.versions().size(); i += 13) {
      const wl::VersionSpec& v = data_.versions()[i];
      std::string table = (intelligent ? "mi" : "mn") + std::to_string(i);
      ASSERT_TRUE(store.CheckoutVersion(v.vid, table).ok());
      auto count = db_.Execute("SELECT count(*) FROM " + table);
      ASSERT_TRUE(count.ok());
      EXPECT_EQ(count.value().Get(0, 0).AsInt(),
                static_cast<int64_t>(v.rids.size()));
    }
  }
}

TEST_F(PartitionStoreTest, IntelligentMigrationMovesFewerRows) {
  // Target barely differs from the source layout; intelligent
  // migration must touch far fewer rows than a full rebuild.
  PartitionStore store(&db_, "cvd", "cvd_data");
  ASSERT_TRUE(store.Build(TwoWaySplit(), VersionRids()).ok());
  Partitioning target = TwoWaySplit();
  // Move a single version between groups.
  VersionId moved = target.groups[0].back();
  target.groups[0].pop_back();
  target.groups[1].push_back(moved);

  auto intelligent = store.Migrate(target, /*intelligent=*/true);
  ASSERT_TRUE(intelligent.ok()) << intelligent.status().ToString();
  EXPECT_EQ(intelligent.value().partitions_rebuilt, 0);
  EXPECT_EQ(intelligent.value().partitions_modified, 2);

  int64_t total_rows = store.StorageRecords();
  EXPECT_LT(intelligent.value().rows_inserted + intelligent.value().rows_deleted,
            total_rows / 2);
}

TEST_F(PartitionStoreTest, DropAllRemovesTables) {
  PartitionStore store(&db_, "cvd", "cvd_data");
  ASSERT_TRUE(store.Build(TwoWaySplit(), VersionRids()).ok());
  ASSERT_TRUE(store.DropAll().ok());
  EXPECT_FALSE(db_.HasTable("cvd_p0_data"));
  EXPECT_EQ(store.num_partitions(), 0u);
}

// --- Restore: the partition tables are the whole state ------------------

// Row-identical tables: same column names and types, same values in
// the same order.
void ExpectSameRows(const rel::Chunk& want, const rel::Chunk& got,
                    const std::string& context) {
  ASSERT_EQ(want.num_columns(), got.num_columns()) << context;
  ASSERT_EQ(want.num_rows(), got.num_rows()) << context;
  for (int c = 0; c < want.num_columns(); ++c) {
    SCOPED_TRACE(context + " column " + want.schema().column(c).name);
    EXPECT_EQ(want.schema().column(c).name, got.schema().column(c).name);
    EXPECT_EQ(want.schema().column(c).type, got.schema().column(c).type);
    EXPECT_EQ(want.column(c).ints(), got.column(c).ints());
    EXPECT_EQ(want.column(c).doubles(), got.column(c).doubles());
    EXPECT_EQ(want.column(c).strings(), got.column(c).strings());
    EXPECT_EQ(want.column(c).arrays(), got.column(c).arrays());
  }
}

class PartitionRestoreTest : public PartitionStoreTest {
 protected:
  // Copies the source table and the live store's partition tables
  // into `copy_`, as a checkpoint restore brings them back, and
  // re-attaches a store to them from the exported wiring alone.
  std::unique_ptr<PartitionStore> RestoreCopy(const PartitionStore& live) {
    PartitionStore::PersistedState state = live.ExportState();
    std::vector<std::pair<std::string, std::string>> tables = {
        {state.source_data_table, "rid"}};
    for (const PartitionStore::PartTables& part : state.parts) {
      tables.push_back({part.data_table, "rid"});
      tables.push_back({part.rlist_table, "vid"});
    }
    for (const auto& [name, key] : tables) {
      EXPECT_TRUE(
          copy_.AdoptTable(name, db_.GetTable(name).ValueOrDie()->data(), {key}).ok())
          << name;
    }
    auto restored = PartitionStore::Restore(&copy_, "cvd", state);
    EXPECT_TRUE(restored.ok()) << restored.status().ToString();
    return restored.ok() ? std::move(restored).value() : nullptr;
  }

  // The restored store answers every question the live one does, with
  // the same values and row-identical tables and checkouts.
  void ExpectSameStore(PartitionStore* live, PartitionStore* restored) {
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(live->num_partitions(), restored->num_partitions());
    EXPECT_EQ(live->num_versions(), restored->num_versions());
    EXPECT_EQ(live->StorageRecords(), restored->StorageRecords());
    EXPECT_EQ(live->AvgCheckoutCost(), restored->AvgCheckoutCost());
    EXPECT_EQ(live->VersionGroups(), restored->VersionGroups());
    for (const PartitionStore::PartTables& part : live->partitions()) {
      for (const std::string& name : {part.data_table, part.rlist_table}) {
        ASSERT_TRUE(copy_.HasTable(name)) << name;
        ExpectSameRows(db_.GetTable(name).ValueOrDie()->data(),
                       copy_.GetTable(name).ValueOrDie()->data(), name);
      }
    }
    for (const wl::VersionSpec& v : data_.versions()) {
      Result<size_t> want = live->PartitionOf(v.vid);
      Result<size_t> got = restored->PartitionOf(v.vid);
      ASSERT_EQ(want.ok(), got.ok()) << "vid " << v.vid;
      if (!want.ok()) continue;
      EXPECT_EQ(want.value(), got.value()) << "vid " << v.vid;
      ASSERT_TRUE(db_.DropTable("chk", true).ok());
      ASSERT_TRUE(copy_.DropTable("chk", true).ok());
      ASSERT_TRUE(live->CheckoutVersion(v.vid, "chk").ok());
      ASSERT_TRUE(restored->CheckoutVersion(v.vid, "chk").ok());
      ExpectSameRows(db_.GetTable("chk").ValueOrDie()->data(),
                     copy_.GetTable("chk").ValueOrDie()->data(),
                     "checkout of vid " + std::to_string(v.vid));
    }
  }

  // Restores a copy of `live`, compares it, then runs the same
  // migration (vid % 3) on both stores and compares again: a restored
  // store must migrate from its tables exactly as the live one does.
  void CheckRestoreAndMigrate(PartitionStore* live) {
    std::unique_ptr<PartitionStore> restored = RestoreCopy(*live);
    ExpectSameStore(live, restored.get());
    Partitioning target;
    target.groups.resize(3);
    for (const wl::VersionSpec& v : data_.versions()) {
      if (live->PartitionOf(v.vid).ok()) {
        target.groups[static_cast<size_t>(v.vid % 3)].push_back(v.vid);
      }
    }
    for (bool intelligent : {true, false}) {
      SCOPED_TRACE(intelligent ? "intelligent" : "naive");
      auto want = live->Migrate(target, intelligent);
      auto got = restored->Migrate(target, intelligent);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(want.value().rows_inserted, got.value().rows_inserted);
      EXPECT_EQ(want.value().rows_deleted, got.value().rows_deleted);
      EXPECT_EQ(want.value().partitions_rebuilt, got.value().partitions_rebuilt);
      EXPECT_EQ(want.value().partitions_modified, got.value().partitions_modified);
      ExpectSameStore(live, restored.get());
    }
  }

  rel::Database copy_;
};

TEST_F(PartitionRestoreTest, AfterBuild) {
  PartitionStore store(&db_, "cvd", "cvd_data");
  ASSERT_TRUE(store.Build(TwoWaySplit(), VersionRids()).ok());
  CheckRestoreAndMigrate(&store);
}

TEST_F(PartitionRestoreTest, AfterOnlineAdditions) {
  PartitionStore store(&db_, "cvd", "cvd_data");
  Partitioning initial;
  initial.groups.resize(1);
  std::map<VersionId, std::vector<RecordId>> rids;
  size_t half = data_.versions().size() / 2;
  for (size_t i = 0; i < half; ++i) {
    initial.groups[0].push_back(data_.versions()[i].vid);
    rids[data_.versions()[i].vid] = data_.versions()[i].rids;
  }
  ASSERT_TRUE(store.Build(initial, rids).ok());
  for (size_t i = half; i < data_.versions().size(); ++i) {
    const wl::VersionSpec& v = data_.versions()[i];
    if (i % 3 == 0) {
      ASSERT_TRUE(store.AddVersionAsNewPartition(v.vid, v.rids).ok());
    } else {
      ASSERT_TRUE(
          store.AddVersionToPartition(v.vid, i % store.num_partitions(), v.rids).ok());
    }
  }
  CheckRestoreAndMigrate(&store);
}

TEST_F(PartitionRestoreTest, AfterEachMigrationMode) {
  for (bool intelligent : {false, true}) {
    SCOPED_TRACE(intelligent ? "intelligent" : "naive");
    PartitionStore store(&db_, "cvd", "cvd_data");
    ASSERT_TRUE(store.Build(TwoWaySplit(), VersionRids()).ok());
    // Move every fifth version to the other group.
    Partitioning target;
    target.groups.resize(2);
    for (const wl::VersionSpec& v : data_.versions()) {
      size_t group = static_cast<size_t>(v.vid % 2);
      if (v.vid % 5 == 0) group = 1 - group;
      target.groups[group].push_back(v.vid);
    }
    ASSERT_TRUE(store.Migrate(target, intelligent).ok());
    CheckRestoreAndMigrate(&store);
    for (const std::string& name : copy_.ListTables()) {
      ASSERT_TRUE(copy_.DropTable(name).ok());
    }
  }
}

TEST_F(PartitionRestoreTest, RestoreRefusesMissingTables) {
  PartitionStore store(&db_, "cvd", "cvd_data");
  ASSERT_TRUE(store.Build(TwoWaySplit(), VersionRids()).ok());
  PartitionStore::PersistedState state = store.ExportState();
  state.parts[1].rlist_table = "no_such_table";
  EXPECT_FALSE(PartitionStore::Restore(&db_, "cvd", state).ok());
  // The failed restore left the live store's tables alone.
  for (const PartitionStore::PartTables& part : store.partitions()) {
    EXPECT_TRUE(db_.HasTable(part.data_table)) << part.data_table;
    EXPECT_TRUE(db_.HasTable(part.rlist_table)) << part.rlist_table;
  }
}

// --- Online maintenance ---------------------------------------------------

TEST_F(PartitionStoreTest, OnlineMaintainerPlacesAndMigrates) {
  PartitionStore store(&db_, "cvd", "cvd_data");
  OnlineOptions options;
  options.gamma_factor = 2.0;
  options.mu = 1.3;
  options.delta_star = 0.3;
  OnlineMaintainer maintainer(&store, options);

  int migrations = 0;
  int opened = 0;
  for (const wl::VersionSpec& v : data_.versions()) {
    VersionArrival arrival{v.vid, v.parents, v.parent_weights, v.rids};
    auto step = maintainer.OnVersionCommitted(arrival);
    ASSERT_TRUE(step.ok()) << step.status().ToString();
    migrations += step.value().migrated ? 1 : 0;
    opened += step.value().opened_partition ? 1 : 0;
    // Live cost never exceeds µ times the best by more than the
    // single-step drift (it is re-checked after every commit).
    if (step.value().cavg_best > 0) {
      EXPECT_LE(step.value().cavg,
                options.mu * step.value().cavg_best * 1.5 + 1.0);
    }
  }
  EXPECT_EQ(store.num_versions(), data_.versions().size());
  EXPECT_GT(opened, 0);
  // Checkout still works for all sampled versions.
  for (size_t i = 0; i < data_.versions().size(); i += 17) {
    const wl::VersionSpec& v = data_.versions()[i];
    ASSERT_TRUE(store.CheckoutVersion(v.vid, "on" + std::to_string(i)).ok());
  }
}

// --- Workload generator sanity ------------------------------------------

TEST(GeneratorTest, DeterministicAndConsistent) {
  wl::DatasetSpec spec;
  spec.num_versions = 80;
  spec.num_branches = 10;
  spec.inserts_per_version = 25;
  spec.num_attrs = 5;
  wl::Dataset a = wl::Generate(spec);
  wl::Dataset b = wl::Generate(spec);
  ASSERT_EQ(a.versions().size(), b.versions().size());
  EXPECT_EQ(a.num_records(), b.num_records());
  for (size_t i = 0; i < a.versions().size(); ++i) {
    EXPECT_EQ(a.versions()[i].rids, b.versions()[i].rids);
  }
  EXPECT_EQ(a.versions().size(), 80u);
  // Edge weights are consistent with actual record overlaps.
  auto bip = a.BuildBipartite();
  for (const wl::VersionSpec& v : a.versions()) {
    for (size_t p = 0; p < v.parents.size(); ++p) {
      auto parent_records = bip.RecordsOf(v.parents[p]);
      ASSERT_TRUE(parent_records.ok());
      std::vector<RecordId> common;
      std::set_intersection(v.rids.begin(), v.rids.end(),
                            parent_records.value()->begin(),
                            parent_records.value()->end(),
                            std::back_inserter(common));
      EXPECT_EQ(static_cast<int64_t>(common.size()), v.parent_weights[p])
          << "vid " << v.vid << " parent " << v.parents[p];
    }
  }
}

TEST(GeneratorTest, CurProducesMergesAndDuplicates) {
  wl::DatasetSpec spec;
  spec.kind = wl::WorkloadKind::kCur;
  spec.num_versions = 150;
  spec.num_branches = 15;
  spec.inserts_per_version = 30;
  spec.num_attrs = 3;
  wl::Dataset data = wl::Generate(spec);
  int merges = 0;
  for (const wl::VersionSpec& v : data.versions()) {
    if (v.parents.size() > 1) ++merges;
  }
  EXPECT_GT(merges, 0);
  EXPECT_GT(data.duplicated_records(), 0);
  // |R^| is a small fraction of |R| (Table 2 reports 7-10%).
  EXPECT_LT(data.duplicated_records(), data.num_records());
}

TEST(GeneratorTest, RowMaterialization) {
  wl::DatasetSpec spec;
  spec.num_versions = 10;
  spec.num_branches = 2;
  spec.inserts_per_version = 20;
  spec.num_attrs = 6;
  wl::Dataset data = wl::Generate(spec);
  rel::Chunk rows = data.RowsFor(data.versions()[0].rids);
  EXPECT_EQ(rows.num_rows(), data.versions()[0].rids.size());
  EXPECT_EQ(rows.num_columns(), 6);
  rel::Chunk all = data.AllRecordRows();
  EXPECT_EQ(all.num_rows(), static_cast<size_t>(data.num_records()));
  EXPECT_EQ(all.num_columns(), 7);  // rid + 6 attributes
  // Record content is deterministic in rid.
  EXPECT_EQ(wl::Dataset::AttrValue(5, 2), wl::Dataset::AttrValue(5, 2));
  EXPECT_NE(wl::Dataset::AttrValue(5, 2), wl::Dataset::AttrValue(6, 2));
}

TEST(GeneratorTest, SpecNameFormatting) {
  wl::DatasetSpec spec;
  spec.num_versions = 1000;
  spec.inserts_per_version = 1000;
  EXPECT_EQ(spec.Name(), "SCI_1M");
  spec.kind = wl::WorkloadKind::kCur;
  spec.num_versions = 100;
  spec.inserts_per_version = 10;
  EXPECT_EQ(spec.Name(), "CUR_1K");
}

}  // namespace
}  // namespace orpheus::part
