// Integration tests for the CVD layer across all five data models:
// init / checkout / commit round trips, record immutability and rid
// reuse, branching, merging with primary-key precedence, diff, schema
// evolution, and the metadata tables. Also exact (collision-proof)
// record identity, and a seeded property test that checks commit
// resolution against a brute-force reference of the resolution rule
// and live engines against their WAL-recovered copies.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <set>

#include "common/thread_pool.h"
#include "core/cvd.h"
#include "core/data_model.h"
#include "core/orpheus.h"
#include "partition/lyresplit.h"
#include "partition/partition_store.h"
#include "relstore/database.h"
#include "relstore/row_key.h"
#include "storage/io_util.h"
#include "storage/snapshot.h"

namespace orpheus::core {
namespace {

using rel::AppendRecordKeys;
using rel::ColumnsOf;
using rel::FirstOccurrences;
using rel::RecordColumns;
using rel::RecordIndex;
using rel::RecordsMatch;

rel::Schema ProteinSchema() {
  return rel::Schema({{"protein1", rel::DataType::kString},
                      {"protein2", rel::DataType::kString},
                      {"neighborhood", rel::DataType::kInt64},
                      {"cooccurrence", rel::DataType::kInt64},
                      {"coexpression", rel::DataType::kInt64}});
}

// The running example of Figure 1: version v1's three records.
rel::Chunk InitialRows() {
  rel::Chunk rows(ProteinSchema());
  rows.AppendRow({rel::Value::String("ENSP273047"), rel::Value::String("ENSP261890"),
                  rel::Value::Int(0), rel::Value::Int(53), rel::Value::Int(0)});
  rows.AppendRow({rel::Value::String("ENSP273047"), rel::Value::String("ENSP235932"),
                  rel::Value::Int(0), rel::Value::Int(87), rel::Value::Int(0)});
  rows.AppendRow({rel::Value::String("ENSP300413"), rel::Value::String("ENSP274242"),
                  rel::Value::Int(426), rel::Value::Int(0), rel::Value::Int(164)});
  return rows;
}

// The tables a step added or dropped: `before` and `after` are
// ListTables() around it.
std::vector<std::string> TableChanges(const std::vector<std::string>& before,
                                      const std::vector<std::string>& after) {
  std::vector<std::string> changed;
  std::set_symmetric_difference(before.begin(), before.end(), after.begin(),
                                after.end(), std::back_inserter(changed));
  return changed;
}

class CvdModelTest : public ::testing::TestWithParam<DataModelKind> {
 protected:
  void SetUp() override {
    CvdOptions options;
    options.model = GetParam();
    options.primary_key = {"protein1", "protein2"};
    auto cvd = Cvd::Create(&db_, "protein", ProteinSchema(), options);
    ASSERT_TRUE(cvd.ok()) << cvd.status().ToString();
    cvd_ = std::move(cvd).value();
    auto v1 = cvd_->InitVersion(InitialRows(), "initial import");
    ASSERT_TRUE(v1.ok()) << v1.status().ToString();
    ASSERT_EQ(v1.value(), 1);
  }

  // Returns the number of rows in a staged/materialized table.
  int64_t RowCount(const std::string& table) {
    auto r = db_.Execute("SELECT count(*) FROM " + table);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value().Get(0, 0).AsInt() : -1;
  }

  rel::Database db_;
  std::unique_ptr<Cvd> cvd_;
};

TEST_P(CvdModelTest, CheckoutMaterializesVersion) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w1").ok());
  EXPECT_EQ(RowCount("w1"), 3);
  // Schema is rid + the five data attributes.
  auto table = db_.GetTable("w1");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value()->schema().num_columns(), 6);
  EXPECT_EQ(table.value()->schema().column(0).name, "rid");
}

TEST_P(CvdModelTest, CommitUnchangedReusesAllRecords) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w1").ok());
  auto v2 = cvd_->Commit("w1", "no changes");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(v2.value(), 2);
  // No new records were created.
  EXPECT_EQ(cvd_->total_records(), 3);
  // The staged table is cleaned up by commit.
  EXPECT_FALSE(db_.HasTable("w1"));
  // Edge weight to the parent equals the full record count.
  auto node = cvd_->graph().GetNode(2);
  ASSERT_TRUE(node.ok());
  ASSERT_EQ(node.value()->parents.size(), 1u);
  EXPECT_EQ(node.value()->parent_weights[0], 3);
}

TEST_P(CvdModelTest, ModifiedRowBecomesNewRecord) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w1").ok());
  // Figure 1's evolution: coexpression of the first record changes
  // 0 -> 83, a new immutable record.
  ASSERT_TRUE(db_.Execute("UPDATE w1 SET coexpression = 83 "
                          "WHERE protein2 = 'ENSP261890'").ok());
  auto v2 = cvd_->Commit("w1", "update coexpression");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(cvd_->total_records(), 4);  // 3 original + 1 new version of r1
  auto node = cvd_->graph().GetNode(v2.value());
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(node.value()->parent_weights[0], 2);  // two records shared
  EXPECT_EQ(node.value()->num_records, 3);
}

TEST_P(CvdModelTest, InsertAndDeleteRows) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w1").ok());
  ASSERT_TRUE(db_.Execute("DELETE FROM w1 WHERE protein1 = 'ENSP300413'").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO w1 VALUES (0, 'ENSP309334', 'ENSP346022', "
                          "0, 227, 975)").ok());
  auto v2 = cvd_->Commit("w1", "replace a record");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  ASSERT_TRUE(cvd_->Checkout({v2.value()}, "w2").ok());
  EXPECT_EQ(RowCount("w2"), 3);
  auto r = db_.Execute("SELECT count(*) FROM w2 WHERE protein1 = 'ENSP309334'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 1);
}

TEST_P(CvdModelTest, BranchingFromOneParent) {
  // Two children of v1 with different edits.
  ASSERT_TRUE(cvd_->Checkout({1}, "wa").ok());
  ASSERT_TRUE(db_.Execute("UPDATE wa SET neighborhood = 7 "
                          "WHERE protein2 = 'ENSP261890'").ok());
  auto v2 = cvd_->Commit("wa", "branch a");
  ASSERT_TRUE(v2.ok());

  ASSERT_TRUE(cvd_->Checkout({1}, "wb").ok());
  ASSERT_TRUE(db_.Execute("UPDATE wb SET cooccurrence = 99 "
                          "WHERE protein2 = 'ENSP235932'").ok());
  auto v3 = cvd_->Commit("wb", "branch b");
  ASSERT_TRUE(v3.ok());

  auto children = cvd_->graph().GetNode(1).value()->children;
  EXPECT_EQ(children.size(), 2u);
  // The two branches see different data.
  ASSERT_TRUE(cvd_->Checkout({v2.value()}, "ra").ok());
  ASSERT_TRUE(cvd_->Checkout({v3.value()}, "rb").ok());
  auto a = db_.Execute("SELECT count(*) FROM ra WHERE neighborhood = 7");
  auto b = db_.Execute("SELECT count(*) FROM rb WHERE neighborhood = 7");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().Get(0, 0).AsInt(), 1);
  EXPECT_EQ(b.value().Get(0, 0).AsInt(), 0);
}

TEST_P(CvdModelTest, MergeCheckoutUsesPrecedence) {
  // Both branches modify the SAME logical record (same PK); the first
  // listed version must win (§2.2 precedence rule).
  ASSERT_TRUE(cvd_->Checkout({1}, "wa").ok());
  ASSERT_TRUE(db_.Execute("UPDATE wa SET coexpression = 11 "
                          "WHERE protein2 = 'ENSP261890'").ok());
  auto v2 = cvd_->Commit("wa", "branch a");
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE(cvd_->Checkout({1}, "wb").ok());
  ASSERT_TRUE(db_.Execute("UPDATE wb SET coexpression = 22 "
                          "WHERE protein2 = 'ENSP261890'").ok());
  auto v3 = cvd_->Commit("wb", "branch b");
  ASSERT_TRUE(v3.ok());

  const std::vector<std::string> tables = db_.ListTables();
  ASSERT_TRUE(cvd_->Checkout({v2.value(), v3.value()}, "merged").ok());
  EXPECT_EQ(std::vector<std::string>{"merged"}, TableChanges(tables, db_.ListTables()));
  EXPECT_EQ(RowCount("merged"), 3);  // PK dedupe, not 4 rows
  auto r = db_.Execute(
      "SELECT coexpression FROM merged WHERE protein2 = 'ENSP261890'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 11);  // v2 listed first wins

  // Committing the merge creates a version with two parents.
  auto v4 = cvd_->Commit("merged", "merge");
  ASSERT_TRUE(v4.ok()) << v4.status().ToString();
  auto node = cvd_->graph().GetNode(v4.value());
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(node.value()->parents.size(), 2u);
}

TEST_P(CvdModelTest, DiffFindsAsymmetricRecords) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w1").ok());
  ASSERT_TRUE(db_.Execute("UPDATE w1 SET coexpression = 83 "
                          "WHERE protein2 = 'ENSP261890'").ok());
  auto v2 = cvd_->Commit("w1", "edit");
  ASSERT_TRUE(v2.ok());
  // Diff is a read: it leaves the catalog as it found it.
  const std::vector<std::string> tables = db_.ListTables();
  auto fwd = cvd_->Diff(v2.value(), 1);
  ASSERT_TRUE(fwd.ok()) << fwd.status().ToString();
  EXPECT_EQ(fwd.value().num_rows(), 1u);  // the modified record
  auto bwd = cvd_->Diff(1, v2.value());
  ASSERT_TRUE(bwd.ok());
  EXPECT_EQ(bwd.value().num_rows(), 1u);  // the replaced original
  auto self = cvd_->Diff(1, 1);
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self.value().num_rows(), 0u);
  EXPECT_EQ(tables, db_.ListTables());
}

TEST_P(CvdModelTest, CommitWithoutCheckoutFails) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE rogue (rid INT, x INT)").ok());
  EXPECT_EQ(cvd_->Commit("rogue", "no provenance").status().code(),
            StatusCode::kNotFound);
}

TEST_P(CvdModelTest, PrimaryKeyViolationRejected) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w1").ok());
  // Duplicate an existing primary key.
  ASSERT_TRUE(db_.Execute("INSERT INTO w1 VALUES (0, 'ENSP273047', "
                          "'ENSP261890', 1, 1, 1)").ok());
  EXPECT_EQ(cvd_->Commit("w1", "dup pk").status().code(),
            StatusCode::kConstraintViolation);
}

TEST_P(CvdModelTest, DiscardStagedDropsTable) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w1").ok());
  ASSERT_TRUE(cvd_->DiscardStaged("w1").ok());
  EXPECT_FALSE(db_.HasTable("w1"));
  EXPECT_EQ(cvd_->staged_tables().size(), 0u);
}

TEST_P(CvdModelTest, CheckoutIntoExistingTableFails) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE taken (x INT)").ok());
  EXPECT_EQ(cvd_->Checkout({1}, "taken").code(), StatusCode::kAlreadyExists);
}

TEST_P(CvdModelTest, VersionRecordsAndRowsAgree) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w1").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO w1 VALUES (0, 'X', 'Y', 1, 2, 3)").ok());
  auto v2 = cvd_->Commit("w1", "add");
  ASSERT_TRUE(v2.ok());
  auto rids = cvd_->model()->VersionRecords(v2.value());
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids.value().size(), 4u);
  auto rows = cvd_->model()->VersionRows(v2.value());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().num_rows(), 4u);
  // rid sets agree.
  std::set<RecordId> a(rids.value().begin(), rids.value().end());
  std::set<RecordId> b;
  int rid_col = rows.value().schema().FindColumn("rid");
  for (size_t r = 0; r < rows.value().num_rows(); ++r) {
    b.insert(rows.value().column(rid_col).ints()[r]);
  }
  EXPECT_EQ(a, b);
}

TEST_P(CvdModelTest, StorageBytesPositive) {
  EXPECT_GT(cvd_->StorageBytes(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, CvdModelTest,
    ::testing::Values(DataModelKind::kSplitByRlist, DataModelKind::kSplitByVlist,
                      DataModelKind::kCombinedTable, DataModelKind::kDeltaBased,
                      DataModelKind::kTablePerVersion),
    [](const ::testing::TestParamInfo<DataModelKind>& info) {
      std::string name = DataModelKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- Schema evolution (split models only, §3.3) ------------------------

class SchemaEvolutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CvdOptions options;
    options.model = DataModelKind::kSplitByRlist;
    auto cvd = Cvd::Create(&db_, "p", ProteinSchema(), options);
    ASSERT_TRUE(cvd.ok());
    cvd_ = std::move(cvd).value();
    ASSERT_TRUE(cvd_->InitVersion(InitialRows(), "init").ok());
  }
  rel::Database db_;
  std::unique_ptr<Cvd> cvd_;
};

TEST_F(SchemaEvolutionTest, AddedColumnBackfillsNulls) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w").ok());
  // User adds a column in their workspace (simulate by rebuilding the
  // staged table with an extra attribute).
  ASSERT_TRUE(db_.Execute("SELECT rid, protein1, protein2, neighborhood, "
                          "cooccurrence, coexpression, neighborhood * 2 AS fusion "
                          "INTO w2 FROM w").ok());
  ASSERT_TRUE(db_.DropTable("w").ok());
  // Re-register provenance under the new name by checking out again is
  // not possible; instead rename via the staged map: use checkout to a
  // fresh table and commit that path in real flows. For the test, go
  // through the CVD API: check out, then commit the widened table via
  // a fresh checkout name.
  ASSERT_TRUE(db_.Execute("SELECT * INTO w FROM w2").ok());
  ASSERT_TRUE(db_.DropTable("w2").ok());
  auto v2 = cvd_->Commit("w", "add fusion attribute");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();

  // The CVD schema now carries 6 attributes; v1 checkouts still show 5.
  EXPECT_EQ(cvd_->model()->data_schema().num_columns(), 6);
  ASSERT_TRUE(cvd_->Checkout({1}, "old").ok());
  auto old_table = db_.GetTable("old");
  ASSERT_TRUE(old_table.ok());
  EXPECT_EQ(old_table.value()->schema().num_columns(), 6);  // rid + 5
  ASSERT_TRUE(cvd_->Checkout({v2.value()}, "cur").ok());
  auto cur_table = db_.GetTable("cur");
  ASSERT_TRUE(cur_table.ok());
  EXPECT_EQ(cur_table.value()->schema().num_columns(), 7);  // rid + 6
}

TEST_F(SchemaEvolutionTest, TypeWideningIntToDouble) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w").ok());
  // cooccurrence becomes DOUBLE (the paper's a4 -> a5 example).
  ASSERT_TRUE(db_.Execute("SELECT rid, protein1, protein2, neighborhood, "
                          "cooccurrence * 0.5 AS cooccurrence, coexpression "
                          "INTO wt FROM w").ok());
  ASSERT_TRUE(db_.DropTable("w").ok());
  ASSERT_TRUE(db_.Execute("SELECT * INTO w FROM wt").ok());
  ASSERT_TRUE(db_.DropTable("wt").ok());
  auto v2 = cvd_->Commit("w", "widen cooccurrence");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();

  // A new attribute entry exists for the widened type.
  int cooccurrence_entries = 0;
  for (const AttributeEntry& attr : cvd_->attributes()) {
    if (attr.name == "cooccurrence") ++cooccurrence_entries;
  }
  EXPECT_EQ(cooccurrence_entries, 2);
  // The pool column is now DOUBLE.
  auto data = db_.GetTable("p_data");
  ASSERT_TRUE(data.ok());
  int col = data.value()->schema().FindColumn("cooccurrence");
  EXPECT_EQ(data.value()->schema().column(col).type, rel::DataType::kDouble);
}

TEST_F(SchemaEvolutionTest, MetadataTablesPopulated) {
  auto meta = db_.Execute("SELECT vid, msg FROM p_meta ORDER BY vid");
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  ASSERT_EQ(meta.value().num_rows(), 1u);
  EXPECT_EQ(meta.value().Get(0, 1).AsString(), "init");
  auto attrs = db_.Execute("SELECT count(*) FROM p_attr");
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs.value().Get(0, 0).AsInt(), 5);
}

// --- Exact record identity -----------------------------------------------

rel::Schema KeyedSchema() {
  return rel::Schema({{"k", rel::DataType::kInt64},
                      {"name", rel::DataType::kString},
                      {"d", rel::DataType::kDouble}});
}

// Constant keys put every row into one chain, so only typed content
// equality tells rows apart: a 64-bit key collision can neither merge
// two distinct records nor hide a real duplicate.
TEST(RecordIdentityTest, ConstantKeysKeepDistinctRowsAndCatchDuplicates) {
  rel::Chunk rows(KeyedSchema());
  for (int i = 0; i < 60; ++i) {
    rows.AppendRow({rel::Value::Int(i % 10),
                    rel::Value::String("n" + std::to_string(i / 10)),
                    rel::Value::Double(1.5)});
  }
  std::vector<int64_t> keys(rows.num_rows(), 0);
  auto keep = FirstOccurrences({ColumnsOf(rows, {0, 1})}, keys);
  ASSERT_EQ(1u, keep.size());
  EXPECT_EQ(60u, keep[0].size());  // every (k, name) is distinct

  // A real duplicate of row 7 is caught; the earlier row wins.
  rows.AppendRowFrom(rows, 7);
  keys.push_back(0);
  keep = FirstOccurrences({ColumnsOf(rows, {0, 1})}, keys);
  ASSERT_EQ(60u, keep[0].size());
  EXPECT_EQ(59u, keep[0].back());

  // Across parts (a merging checkout): rows equal to an earlier
  // part's rows are dropped, the rest survive.
  rel::Chunk later(KeyedSchema());
  later.AppendRow({rel::Value::Int(3), rel::Value::String("n0"),
                   rel::Value::Double(9.0)});  // (3, n0) is in `rows`
  later.AppendRow({rel::Value::Int(3), rel::Value::String("fresh"),
                   rel::Value::Double(9.0)});
  std::vector<int64_t> all_keys(rows.num_rows() + later.num_rows(), 7);
  keep = FirstOccurrences({ColumnsOf(rows, {0, 1}), ColumnsOf(later, {0, 1})},
                          all_keys);
  ASSERT_EQ(2u, keep.size());
  EXPECT_EQ(60u, keep[0].size());
  EXPECT_EQ(std::vector<uint32_t>{1}, keep[1]);
}

TEST(RecordIdentityTest, TypedEqualityOnNullsZerosAndNaN) {
  rel::Chunk rows(KeyedSchema());
  auto row = [&](rel::Value k, rel::Value name, rel::Value d) {
    rows.AppendRow({std::move(k), std::move(name), std::move(d)});
  };
  row(rel::Value::Int(1), rel::Value::Null(), rel::Value::Double(0.0));   // 0
  row(rel::Value::Int(1), rel::Value::Null(), rel::Value::Double(-0.0));  // 1
  row(rel::Value::Int(1), rel::Value::Null(), rel::Value::Double(std::nan("")));
  row(rel::Value::Int(1), rel::Value::Null(), rel::Value::Double(std::nan("")));
  row(rel::Value::Int(1), rel::Value::String(""), rel::Value::Double(0.0));
  row(rel::Value::Int(9), rel::Value::Null(), rel::Value::Double(0.0));    // 5
  // A NULL whose slot still holds an old value equals any other NULL,
  // and hashes like it.
  rows.mutable_column(0).Set(5, rel::Value::Null());
  row(rel::Value::Null(), rel::Value::Null(), rel::Value::Double(0.0));    // 6

  RecordColumns cols = ColumnsOf(rows, {0, 1, 2});
  std::vector<int64_t> keys;
  AppendRecordKeys(cols, rows.num_rows(), &keys);
  EXPECT_EQ(keys[5], keys[6]);
  EXPECT_TRUE(RecordsMatch(cols, 5, cols, 6));
  EXPECT_FALSE(RecordsMatch(cols, 0, cols, 1));  // 0.0 vs -0.0
  EXPECT_FALSE(RecordsMatch(cols, 2, cols, 3));  // NaN vs NaN
  EXPECT_FALSE(RecordsMatch(cols, 2, cols, 2));
  EXPECT_FALSE(RecordsMatch(cols, 0, cols, 4));  // NULL vs ''
  EXPECT_TRUE(RecordsMatch(cols, 4, cols, 4));
  // Both NaN rows survive a dedupe; the two NULL-keyed rows do not.
  EXPECT_EQ((std::vector<uint32_t>{0, 1, 2, 3, 4, 5}),
            FirstOccurrences({cols}, keys)[0]);
}

// --- Commit resolution: reference property test ----------------------------

// The resolution rule as the record manager first implemented it, kept
// as a brute-force oracle: FNV-1a over each row's typed bytes (NULL as
// a tag byte), then boxed Value equality with NULL equal to NULL. A
// staged row takes the rid of the first parent record, in parent order
// then row order, that passes both; otherwise the next fresh rid.
uint64_t ReferenceHash(const rel::Chunk& chunk, size_t row) {
  uint64_t h = 1469598103934665603ULL;
  auto bytes = [&h](const void* data, size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  for (int c = 0; c < chunk.num_columns(); ++c) {
    const rel::Column& col = chunk.column(c);
    if (col.IsNull(row)) {
      unsigned char tag = 0xff;
      bytes(&tag, 1);
      continue;
    }
    switch (col.type()) {
      case rel::DataType::kInt64:
      case rel::DataType::kBool:
        bytes(&col.ints()[row], sizeof(int64_t));
        break;
      case rel::DataType::kDouble:
        bytes(&col.doubles()[row], sizeof(double));
        break;
      case rel::DataType::kString: {
        size_t len = col.strings()[row].size();
        bytes(&len, sizeof(len));
        bytes(col.strings()[row].data(), len);
        break;
      }
      case rel::DataType::kIntArray: {
        size_t len = col.arrays()[row].size();
        bytes(&len, sizeof(len));
        bytes(col.arrays()[row].data(), len * sizeof(int64_t));
        break;
      }
      case rel::DataType::kNull:
        break;
    }
  }
  return h;
}

bool ReferenceEqual(const rel::Chunk& a, size_t ra, const rel::Chunk& b,
                    size_t rb) {
  if (ReferenceHash(a, ra) != ReferenceHash(b, rb)) return false;
  for (int c = 0; c < a.num_columns(); ++c) {
    rel::Value va = a.Get(ra, c);
    rel::Value vb = b.Get(rb, c);
    if (va.is_null() && vb.is_null()) continue;
    if (!va.Equals(vb)) return false;
  }
  return true;
}

// `rows`' data attributes aligned by name to `data_schema`: missing
// attributes read NULL, narrower values widen to the attribute's type.
rel::Chunk AlignTo(const rel::Chunk& rows, const rel::Schema& data_schema) {
  rel::Chunk out(data_schema);
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    std::vector<rel::Value> values;
    for (const rel::ColumnDef& def : data_schema.columns()) {
      int src = rows.schema().FindColumn(def.name);
      rel::Value v = src < 0 ? rel::Value::Null() : rows.Get(r, src);
      if (!v.is_null() && def.type == rel::DataType::kDouble &&
          v.type() == rel::DataType::kInt64) {
        v = rel::Value::Double(static_cast<double>(v.AsInt()));
      }
      values.push_back(std::move(v));
    }
    out.AppendRow(values);
  }
  return out;
}

struct ReferenceParent {
  rel::Chunk data;
  std::vector<RecordId> rids;
};

std::vector<RecordId> ReferenceRids(const rel::Chunk& staged,
                                    const std::vector<ReferenceParent>& parents,
                                    RecordId next_rid) {
  std::vector<RecordId> rids;
  for (size_t r = 0; r < staged.num_rows(); ++r) {
    RecordId found = -1;
    for (const ReferenceParent& parent : parents) {
      for (size_t pr = 0; pr < parent.data.num_rows() && found < 0; ++pr) {
        if (ReferenceEqual(staged, r, parent.data, pr)) found = parent.rids[pr];
      }
      if (found >= 0) break;
    }
    rids.push_back(found >= 0 ? found : next_rid++);
  }
  return rids;
}

rel::Schema ScriptSchema() {
  return rel::Schema({{"k", rel::DataType::kInt64},
                      {"d", rel::DataType::kDouble},
                      {"s", rel::DataType::kString},
                      {"arr", rel::DataType::kIntArray},
                      {"x", rel::DataType::kInt64}});
}

// Small domains, so edits often recreate parent content; NULL, 0.0
// against -0.0, and NaN all appear.
rel::Value RandomValue(rel::DataType type, std::mt19937_64& rng) {
  const int pick = static_cast<int>(rng() % 5);
  if (pick == 4) return rel::Value::Null();
  switch (type) {
    case rel::DataType::kInt64:
      return rel::Value::Int(pick % 3);
    case rel::DataType::kDouble: {
      const double values[] = {0.0, -0.0, std::nan(""), 1.5};
      return rel::Value::Double(values[pick]);
    }
    case rel::DataType::kString: {
      const char* values[] = {"a", "b", "", "a"};
      return rel::Value::String(values[pick]);
    }
    case rel::DataType::kIntArray: {
      const rel::IntArray values[] = {{}, {1}, {1, 2}, {2}};
      return rel::Value::Array(values[pick]);
    }
    default:
      return rel::Value::Null();
  }
}

// One random edit of staged table `w` (rid first, then data columns).
// With a primary key, k is never edited and inserted keys are fresh.
void RandomEdit(rel::Table* staged, const std::vector<ReferenceParent>& parents,
                bool with_pk, int64_t* next_key, std::mt19937_64& rng) {
  rel::Chunk& rows = staged->mutable_chunk();
  const rel::Schema schema = rows.schema();
  const size_t n = rows.num_rows();
  const int op = static_cast<int>(rng() % 5);
  if (op == 0 && n > 0) {  // update one attribute
    const size_t r = rng() % n;
    const int c = 1 + static_cast<int>(rng() % (schema.num_columns() - 1));
    if (with_pk && schema.column(c).name == "k") return;
    rows.mutable_column(c).Set(r, RandomValue(schema.column(c).type, rng));
  } else if (op == 1 && n > 0) {  // delete a row
    std::vector<bool> keep(n, true);
    keep[rng() % n] = false;
    rows.FilterRows(keep);
  } else if (op == 2) {  // insert a new row (rid left NULL)
    std::vector<rel::Value> values = {rel::Value::Null()};
    for (int c = 1; c < schema.num_columns(); ++c) {
      values.push_back(with_pk && schema.column(c).name == "k"
                           ? rel::Value::Int((*next_key)++)
                           : RandomValue(schema.column(c).type, rng));
    }
    rows.AppendRow(values);
  } else if ((op == 3 || op == 4) && !parents.empty()) {
    // Copy a parent record's content: over an existing row (a revert)
    // or as an extra row (an equal duplicate of the record).
    const ReferenceParent& parent = parents[rng() % parents.size()];
    if (parent.data.num_rows() == 0) return;
    const size_t pr = rng() % parent.data.num_rows();
    size_t r = n;
    if (op == 3 && n > 0) {
      r = rng() % n;
    } else {
      std::vector<rel::Value> values(static_cast<size_t>(schema.num_columns()));
      rows.AppendRow(values);
    }
    for (int c = 1; c < schema.num_columns(); ++c) {
      int pc = parent.data.schema().FindColumn(schema.column(c).name);
      if (pc < 0 || parent.data.schema().column(pc).type != schema.column(c).type) {
        continue;
      }
      rows.mutable_column(c).Set(r, parent.data.Get(pr, pc));
    }
    if (with_pk) {  // a copied key must stay unique
      int k = schema.FindColumn("k");
      for (size_t other = 0; other < rows.num_rows(); ++other) {
        if (other != r && !rows.column(k).IsNull(other) &&
            rows.column(k).ints()[other] == rows.column(k).ints()[r]) {
          rows.mutable_column(k).Set(r, rel::Value::Int((*next_key)++));
          break;
        }
      }
    }
  }
}

class ResolutionPropertyTest : public ::testing::TestWithParam<DataModelKind> {};

TEST_P(ResolutionPropertyTest, ScriptsMatchReferenceAndReplayBitIdentically) {
  const DataModelKind model = GetParam();
  const bool evolves = model == DataModelKind::kSplitByRlist ||
                       model == DataModelKind::kSplitByVlist;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const bool with_pk = seed % 2 == 0;
    const std::string dir =
        storage::MakeTempDir("orpheus_resolve_").ValueOrDie();
    std::string image;
    {
      OrpheusDB db;
      ASSERT_TRUE(db.Open(dir).ok());
      CvdOptions options;
      options.model = model;
      if (with_pk) options.primary_key = {"k"};
      // Rows 0-2 pin 0.0, NaN and NULLs; without a primary key the
      // random rows repeat content, so v1 holds duplicate rows.
      rel::Chunk init(ScriptSchema());
      int64_t next_key = 0;
      for (int i = 0; i < 12; ++i) {
        std::vector<rel::Value> values;
        for (const rel::ColumnDef& def : init.schema().columns()) {
          values.push_back(def.name == "k" && with_pk
                               ? rel::Value::Int(next_key++)
                               : RandomValue(def.type, rng));
        }
        if (i == 0) values[1] = rel::Value::Double(0.0);
        if (i == 1) values[1] = rel::Value::Double(std::nan(""));
        if (i == 2) values[2] = values[3] = rel::Value::Null();
        init.AppendRow(values);
      }
      ASSERT_TRUE(db.InitCvd("t", init, options, "init").ok());
      Cvd* cvd = db.GetCvd("t").ValueOrDie();

      std::vector<VersionId> versions = {1};
      std::vector<RecordId> same_edit_rids;
      for (int step = 0; step < 10; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        // Steps 0-2: two branches of v1 make the same edit (equal
        // content under two rids), then a merge of both. Later steps
        // pick one or two random versions.
        std::vector<VersionId> parents = {1};
        if (step == 2) {
          parents = {versions[1], versions[2]};
        } else if (step > 2) {
          parents = {versions[rng() % versions.size()]};
          VersionId other = versions[rng() % versions.size()];
          if (rng() % 3 == 0 && other != parents[0]) parents.push_back(other);
        }
        ASSERT_TRUE(db.Checkout("t", parents, "w").ok());
        rel::Table* staged = db.db()->GetTable("w").ValueOrDie();

        std::vector<ReferenceParent> before;
        for (VersionId p : parents) {
          rel::Chunk rows = cvd->model()->VersionRows(p).ValueOrDie();
          before.push_back({std::move(rows), {}});
        }
        if (step < 2) {
          rel::Chunk& rows = staged->mutable_chunk();
          rows.mutable_column(rows.schema().FindColumn("s"))
              .Set(0, rel::Value::String("same edit"));
          rows.mutable_column(rows.schema().FindColumn("d"))
              .Set(0, rel::Value::Double(-0.0));
        } else {
          const int edits = 1 + static_cast<int>(rng() % 5);
          for (int e = 0; e < edits; ++e) {
            RandomEdit(staged, before, with_pk, &next_key, rng);
          }
        }
        if (evolves && step == 5) {  // an added attribute
          ASSERT_TRUE(staged->AddColumn("extra", rel::DataType::kInt64).ok());
          rel::Chunk& rows = staged->mutable_chunk();
          if (rows.num_rows() > 0) {
            rows.mutable_column(rows.num_columns() - 1).Set(0, rel::Value::Int(4));
          }
        }
        if (evolves && step == 7) {  // x widens from INT to DOUBLE
          ASSERT_TRUE(staged->AlterColumnType("x", rel::DataType::kDouble).ok());
        }

        Result<ResolvedCommit> plan = cvd->ResolveCommit("w");
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        // The reference reads the parents after schema reconciliation,
        // in the same row order resolution saw.
        const rel::Schema data_schema = cvd->model()->data_schema();
        std::vector<ReferenceParent> reference;
        for (VersionId p : parents) {
          rel::Chunk rows = cvd->model()->VersionRows(p).ValueOrDie();
          reference.push_back(
              {AlignTo(rows, data_schema), rows.column(0).ints()});
        }
        EXPECT_EQ(ReferenceRids(AlignTo(staged->data(), data_schema), reference,
                                cvd->total_records()),
                  plan.value().rids);

        Result<VersionId> vid = db.Commit("t", "w", "step");
        ASSERT_TRUE(vid.ok()) << vid.status().ToString();
        if (model == DataModelKind::kSplitByRlist) {
          EXPECT_EQ(plan.value().rids,
                    cvd->model()->VersionRecords(vid.value()).ValueOrDie());
        }
        // Edge weights: committed rows whose rid the parent holds.
        std::vector<int64_t> weights;
        for (const ReferenceParent& parent : reference) {
          std::set<RecordId> held(parent.rids.begin(), parent.rids.end());
          weights.push_back(std::count_if(
              plan.value().rids.begin(), plan.value().rids.end(),
              [&](RecordId rid) { return held.count(rid) > 0; }));
        }
        EXPECT_EQ(weights,
                  cvd->graph().GetNode(vid.value()).value()->parent_weights);
        const std::vector<RecordId>& rids = plan.value().rids;
        if (step < 2) {
          same_edit_rids.push_back(rids[0]);
        } else if (step == 2) {  // the first parent's rid wins the merge
          ASSERT_NE(same_edit_rids[0], same_edit_rids[1]);
          EXPECT_NE(rids.end(),
                    std::find(rids.begin(), rids.end(), same_edit_rids[0]));
          EXPECT_EQ(rids.end(),
                    std::find(rids.begin(), rids.end(), same_edit_rids[1]));
        }
        versions.push_back(vid.value());
      }
      // Every script ends on a commit, which logs its parents and sets
      // the logical clock, so the whole image must match — clocks and
      // the (empty) staging area included — though no checkout was
      // logged.
      image = storage::SnapshotCodec::Encode(db, 0);
    }
    {
      OrpheusDB recovered;
      ASSERT_TRUE(recovered.Open(dir).ok());
      EXPECT_TRUE(image == storage::SnapshotCodec::Encode(recovered, 0))
          << "live and WAL-recovered engines differ";
    }
    ASSERT_TRUE(storage::RemoveDirRecursive(dir).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ResolutionPropertyTest,
    ::testing::Values(DataModelKind::kSplitByRlist, DataModelKind::kSplitByVlist,
                      DataModelKind::kCombinedTable, DataModelKind::kDeltaBased,
                      DataModelKind::kTablePerVersion),
    [](const ::testing::TestParamInfo<DataModelKind>& info) {
      std::string name = DataModelKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- Batched record lookup ---------------------------------------------

// The batch lookup behind commit resolution equals per-row FindFirst:
// across two parts (a merge's parents), over NULLs, 0.0 against -0.0,
// NaN, strings and arrays, with real keys and with constant keys, under
// which most first hits differ and the rows walk their chains.
TEST(RecordIdentityTest, BatchLookupEqualsPerRowFindFirst) {
  std::mt19937_64 rng(19);
  auto random_rows = [&](size_t n) {
    rel::Chunk rows(ScriptSchema());
    for (size_t i = 0; i < n; ++i) {
      std::vector<rel::Value> values;
      for (const rel::ColumnDef& def : rows.schema().columns()) {
        // x never holds a NULL, so its column takes the bitmap-free loop.
        values.push_back(def.name == "x"
                             ? rel::Value::Int(static_cast<int64_t>(rng() % 2))
                             : RandomValue(def.type, rng));
      }
      rows.AppendRow(values);
    }
    return rows;
  };
  rel::Chunk first = random_rows(40);
  rel::Chunk second = random_rows(40);
  rel::Chunk probe = random_rows(60);
  // Probe rows copied from each part are sure to have an equal row.
  for (size_t r = 0; r < 10; ++r) {
    probe.AppendRowFrom(r % 2 == 0 ? first : second, r * 3);
  }
  // A NULL whose slot still holds the old value.
  probe.mutable_column(0).Set(1, rel::Value::Null());
  // Rows differing from the first part's row 0, the head of every chain
  // under constant keys, only by 0.0 against -0.0 or by a NULL.
  first.mutable_column(1).Set(0, rel::Value::Double(0.0));
  first.mutable_column(2).Set(0, rel::Value::String("a"));
  probe.AppendRowFrom(first, 0);
  probe.mutable_column(1).Set(probe.num_rows() - 1, rel::Value::Double(-0.0));
  probe.AppendRowFrom(first, 0);
  probe.mutable_column(2).Set(probe.num_rows() - 1, rel::Value::Null());

  const std::vector<int> cols = {0, 1, 2, 3, 4};
  RecordColumns probe_cols = ColumnsOf(probe, cols);
  for (const bool constant_keys : {false, true}) {
    SCOPED_TRACE(constant_keys ? "constant keys" : "content keys");
    std::vector<int64_t> keys;
    std::vector<int64_t> probe_keys;
    AppendRecordKeys(ColumnsOf(first, cols), first.num_rows(), &keys);
    AppendRecordKeys(ColumnsOf(second, cols), second.num_rows(), &keys);
    AppendRecordKeys(probe_cols, probe.num_rows(), &probe_keys);
    if (constant_keys) {
      std::fill(keys.begin(), keys.end(), 5);
      std::fill(probe_keys.begin(), probe_keys.end(), 5);
    }
    RecordIndex index({ColumnsOf(first, cols), ColumnsOf(second, cols)}, keys);
    std::vector<uint32_t> expected;
    for (size_t r = 0; r < probe.num_rows(); ++r) {
      expected.push_back(index.FindFirst(probe_keys[r], probe_cols, r));
    }
    EXPECT_EQ(expected, index.FindFirstBatch(probe_keys, probe_cols));
    // The cases the loops must tell apart all occur: misses, hits in
    // either part, and (under constant keys) hits past a chain's head.
    EXPECT_NE(expected.end(),
              std::find(expected.begin(), expected.end(), RecordIndex::kNone));
    EXPECT_TRUE(std::any_of(expected.begin(), expected.end(),
                            [](uint32_t m) { return m < 40; }));
    EXPECT_TRUE(std::any_of(expected.begin(), expected.end(), [](uint32_t m) {
      return m >= 40 && m != RecordIndex::kNone;
    }));
    if (constant_keys) {
      EXPECT_TRUE(std::any_of(expected.begin(), expected.end(), [](uint32_t m) {
        return m > 0 && m != RecordIndex::kNone;
      }));
    }
  }
}

// --- The parents' rows: kept from checkout vs materialized again ----------
//
// Commit resolves against the parents' rows its checkout built. Where
// those are gone or stale it materializes the parents through
// VersionRows instead. Each route below commits through the fallback
// and checks the outcome against a twin engine whose commit uses the
// kept rows: same rids, same new records, same engine image.

// v1 of 24 rows without a primary key (repeated content, so the rid a
// staged row takes depends on the parents' row order), then v2 and v3:
// two branches of v1 that make the same edit (equal content under two
// rids).
void SeedBranches(OrpheusDB* db) {
  std::mt19937_64 rng(23);
  rel::Chunk init(ScriptSchema());
  for (int i = 0; i < 24; ++i) {
    std::vector<rel::Value> values;
    for (const rel::ColumnDef& def : init.schema().columns()) {
      values.push_back(def.name == "k" ? rel::Value::Int(i % 8)
                                       : RandomValue(def.type, rng));
    }
    init.AppendRow(values);
  }
  ASSERT_TRUE(db->InitCvd("t", init, CvdOptions(), "init").ok());
  for (VersionId expected : {2, 3}) {
    ASSERT_TRUE(db->Checkout("t", {1}, "branch").ok());
    ASSERT_TRUE(
        db->db()->Execute("UPDATE branch SET s = 'same edit' WHERE k = 3").ok());
    ASSERT_EQ(expected, db->Commit("t", "branch", "branch").ValueOrDie());
  }
}

// One fixed edit: an update, a revert to a parent record's content, a
// delete and an insert.
void EditStaged(OrpheusDB* db, const std::string& table) {
  for (const std::string& sql :
       {"UPDATE " + table + " SET x = 7 WHERE k = 1",
        "UPDATE " + table + " SET s = 'same edit' WHERE k = 4",
        "UPDATE " + table + " SET s = 'same edit' WHERE k = 3",
        "DELETE FROM " + table + " WHERE k = 2",
        "INSERT INTO " + table + " (k, s, x) VALUES (100, 'new', 1)"}) {
    ASSERT_TRUE(db->db()->Execute(sql).ok()) << sql;
  }
}

struct CommitOutcome {
  std::vector<RecordId> rids;
  std::string new_records;  // the data table's rows from the commit on
  int64_t rows_scanned = 0;
};

std::string ChunkBytes(const rel::Chunk& chunk) {
  storage::BinaryWriter w;
  storage::EncodeChunk(chunk, &w);
  return w.Release();
}

CommitOutcome CommitStaged(OrpheusDB* db, const std::string& table) {
  Cvd* cvd = db->GetCvd("t").ValueOrDie();
  const RecordId first_new = cvd->total_records();
  const int64_t scanned = db->db()->stats()->rows_scanned;
  Result<VersionId> vid = db->Commit("t", table, "edit");
  EXPECT_TRUE(vid.ok()) << vid.status().ToString();
  CommitOutcome out;
  if (!vid.ok()) return out;
  out.rows_scanned = db->db()->stats()->rows_scanned - scanned;
  out.rids = cvd->model()->VersionRecords(vid.value()).ValueOrDie();
  out.new_records = ChunkBytes(
      db->db()
          ->Execute("SELECT * FROM t_data WHERE rid >= " + std::to_string(first_new))
          .ValueOrDie());
  return out;
}

// The fallback engine's commit re-materialized its parents (it scanned
// rows); the twin's used the kept rows and scanned none. Both resolved
// to the same records.
void ExpectSameCommit(const CommitOutcome& fallback, const CommitOutcome& kept) {
  EXPECT_GT(fallback.rows_scanned, 0);
  EXPECT_EQ(0, kept.rows_scanned);
  EXPECT_FALSE(kept.rids.empty());
  EXPECT_EQ(kept.rids, fallback.rids);
  EXPECT_FALSE(kept.new_records.empty());
  EXPECT_TRUE(kept.new_records == fallback.new_records);
}

// Every table's segment bytes, except `skip`.
std::string TableImage(OrpheusDB* db, const std::string& skip) {
  storage::BinaryWriter w;
  for (const std::string& name : db->db()->ListTables()) {
    if (name != skip) {
      storage::SnapshotCodec::EncodeTableSection(*db->db()->GetTable(name).value(),
                                                 &w);
    }
  }
  return w.Release();
}

// A checkpoint and reopen between checkout and commit: the restored
// staged table has no kept rows. Run for a single and a merging
// checkout; the merge lists v3 first, so v3's rid wins for the content
// both branches share.
TEST(CommitParentRowsTest, CheckpointAndReopenMatchesKeptRows) {
  for (const std::vector<VersionId>& parents :
       {std::vector<VersionId>{3}, std::vector<VersionId>{3, 2}}) {
    SCOPED_TRACE("parents " + std::to_string(parents.size()));
    const std::string dir = storage::MakeTempDir("orpheus_memo_").ValueOrDie();
    {
      OrpheusDB db;
      ASSERT_TRUE(db.Open(dir).ok());
      SeedBranches(&db);
      ASSERT_TRUE(db.Checkout("t", parents, "w").ok());
      EditStaged(&db, "w");
      ASSERT_TRUE(db.Checkpoint().ok());
    }
    OrpheusDB reopened;
    ASSERT_TRUE(reopened.Open(dir).ok());
    const CommitOutcome fallback = CommitStaged(&reopened, "w");

    OrpheusDB twin;
    SeedBranches(&twin);
    ASSERT_TRUE(twin.Checkout("t", parents, "w").ok());
    EditStaged(&twin, "w");
    const CommitOutcome kept = CommitStaged(&twin, "w");

    ExpectSameCommit(fallback, kept);
    EXPECT_TRUE(storage::SnapshotCodec::Encode(reopened, 0) ==
                storage::SnapshotCodec::Encode(twin, 0));
    ASSERT_TRUE(storage::RemoveDirRecursive(dir).ok());
  }
}

// A checkout a partition serves keeps no rows. The twin checks out
// before the same partitioning is attached.
TEST(CommitParentRowsTest, PartitionOverrideMatchesKeptRows) {
  auto attach = [](OrpheusDB* db) {
    auto* model = dynamic_cast<SplitByRlistModel*>(
        db->GetCvd("t").ValueOrDie()->model());
    ASSERT_NE(nullptr, model);
    part::Partitioning partitioning;
    partitioning.groups = {{1, 2}, {3}};
    std::map<VersionId, std::vector<RecordId>> version_rids;
    for (VersionId v : {1, 2, 3}) {
      version_rids[v] = model->VersionRecords(v).ValueOrDie();
    }
    auto store =
        std::make_unique<part::PartitionStore>(db->db(), "t", model->DataTable());
    ASSERT_TRUE(store->Build(partitioning, version_rids).ok());
    ASSERT_TRUE(db->AttachPartitionStore("t", std::move(store)).ok());
  };
  OrpheusDB db;
  SeedBranches(&db);
  attach(&db);
  ASSERT_TRUE(db.Checkout("t", {3}, "w").ok());
  EditStaged(&db, "w");
  const CommitOutcome fallback = CommitStaged(&db, "w");

  OrpheusDB twin;
  SeedBranches(&twin);
  ASSERT_TRUE(twin.Checkout("t", {3}, "w").ok());
  attach(&twin);
  EditStaged(&twin, "w");
  const CommitOutcome kept = CommitStaged(&twin, "w");

  ExpectSameCommit(fallback, kept);
  EXPECT_TRUE(storage::SnapshotCodec::Encode(db, 0) ==
              storage::SnapshotCodec::Encode(twin, 0));
}

// Another staged table's commit adds an attribute between this table's
// checkout and commit, so the kept rows lack a column. The twin checks
// out after that commit. Its checkout time differs, so the metadata
// table (which records it) is left out of the comparison.
TEST(CommitParentRowsTest, SchemaEvolutionMatchesKeptRows) {
  auto evolve = [](OrpheusDB* db) {
    rel::Table* staged = db->db()->GetTable("grow").ValueOrDie();
    ASSERT_TRUE(staged->AddColumn("extra", rel::DataType::kInt64).ok());
    staged->mutable_chunk().mutable_column(staged->schema().num_columns() - 1)
        .Set(0, rel::Value::Int(4));
    ASSERT_EQ(4, db->Commit("t", "grow", "add extra").ValueOrDie());
  };
  OrpheusDB db;
  SeedBranches(&db);
  ASSERT_TRUE(db.Checkout("t", {3}, "w").ok());
  ASSERT_TRUE(db.Checkout("t", {2}, "grow").ok());
  evolve(&db);
  EditStaged(&db, "w");
  const CommitOutcome fallback = CommitStaged(&db, "w");

  OrpheusDB twin;
  SeedBranches(&twin);
  ASSERT_TRUE(twin.Checkout("t", {2}, "grow").ok());
  evolve(&twin);
  ASSERT_TRUE(twin.Checkout("t", {3}, "w").ok());
  EditStaged(&twin, "w");
  const CommitOutcome kept = CommitStaged(&twin, "w");

  ExpectSameCommit(fallback, kept);
  EXPECT_TRUE(TableImage(&db, "t_meta") == TableImage(&twin, "t_meta"));
}

// --- Partition routing --------------------------------------------------

// Partitions SeedBranches' CVD as {1, 2}, {3}.
void PartitionSeed(OrpheusDB* db) {
  part::Partitioning partitioning;
  partitioning.groups = {{1, 2}, {3}};
  ASSERT_TRUE(db->Repartition("t", partitioning).ok());
  ASSERT_NE(nullptr, db->partition_store("t"));
}

// Relstore rows `fn` scans.
template <typename Fn>
int64_t RowsScanned(OrpheusDB* db, Fn fn) {
  const int64_t before = db->db()->stats()->rows_scanned;
  fn();
  return db->db()->stats()->rows_scanned - before;
}

// Commit falls back to VersionRows after a partition-served checkout,
// and VersionRows reads the same partition: it scans exactly the rows
// the checkout scanned.
TEST(PartitionRouteTest, CommitScansWhatPartitionServedCheckoutScanned) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SetExecThreads(threads);
    OrpheusDB db;
    SeedBranches(&db);
    PartitionSeed(&db);
    const int64_t checkout = RowsScanned(
        &db, [&] { ASSERT_TRUE(db.Checkout("t", {3}, "w").ok()); });
    EditStaged(&db, "w");
    const std::vector<std::string> tables = db.db()->ListTables();
    const CommitOutcome commit = CommitStaged(&db, "w");
    EXPECT_GT(checkout, 0);
    EXPECT_EQ(checkout, commit.rows_scanned);
    // The parent's rows were read, not staged in a table: the commit
    // dropped only the staged table.
    EXPECT_EQ(std::vector<std::string>{"w"},
              TableChanges(tables, db.db()->ListTables()));
  }
  SetExecThreads(0);
}

// A merging checkout of a placed version (3) and a version committed
// after the partitioning (4) reads each from its own tables: it scans
// what the two single checkouts scan and holds their rows, the first
// occurrence of each rid in precedence order.
TEST(PartitionRouteTest, MergeOfPlacedAndUnplacedVersion) {
  OrpheusDB db;
  SeedBranches(&db);
  PartitionSeed(&db);
  ASSERT_TRUE(db.Checkout("t", {3}, "w").ok());
  EditStaged(&db, "w");
  ASSERT_EQ(4, db.Commit("t", "w", "after partitioning").ValueOrDie());

  const int64_t scanned3 = RowsScanned(
      &db, [&] { ASSERT_TRUE(db.Checkout("t", {3}, "c3").ok()); });
  const int64_t scanned4 = RowsScanned(
      &db, [&] { ASSERT_TRUE(db.Checkout("t", {4}, "c4").ok()); });
  const int64_t merge_scanned = RowsScanned(
      &db, [&] { ASSERT_TRUE(db.Checkout("t", {3, 4}, "m").ok()); });
  EXPECT_EQ(scanned3 + scanned4, merge_scanned);

  const rel::Chunk& c3 = db.db()->GetTable("c3").ValueOrDie()->data();
  const rel::Chunk& c4 = db.db()->GetTable("c4").ValueOrDie()->data();
  std::set<int64_t> seen(c3.column(0).ints().begin(), c3.column(0).ints().end());
  std::vector<uint32_t> only4;
  for (size_t r = 0; r < c4.num_rows(); ++r) {
    if (seen.count(c4.column(0).ints()[r]) == 0) only4.push_back(r);
  }
  ASSERT_FALSE(only4.empty());
  rel::Chunk expected = c3;
  expected.GatherFrom(c4, only4);
  EXPECT_EQ(ChunkBytes(expected),
            ChunkBytes(db.db()->GetTable("m").ValueOrDie()->data()));
}

// Schema evolution alters the partitions' data tables too, and
// attaching a store built before the change brings its tables up to
// date, so a commit whose parent a partition serves resolves like one
// on an unpartitioned twin.
TEST(PartitionRouteTest, SchemaEvolutionReachesPartitions) {
  auto evolve = [](OrpheusDB* db) {
    ASSERT_TRUE(db->Checkout("t", {2}, "grow").ok());
    rel::Table* staged = db->db()->GetTable("grow").ValueOrDie();
    ASSERT_TRUE(staged->AddColumn("extra", rel::DataType::kInt64).ok());
    ASSERT_TRUE(staged->AlterColumnType("x", rel::DataType::kDouble).ok());
    ASSERT_EQ(4, db->Commit("t", "grow", "add extra, widen x").ValueOrDie());
  };
  OrpheusDB twin;
  SeedBranches(&twin);
  evolve(&twin);
  ASSERT_TRUE(twin.Checkout("t", {3}, "w").ok());
  EditStaged(&twin, "w");
  const CommitOutcome kept = CommitStaged(&twin, "w");

  for (bool attach_after : {false, true}) {
    SCOPED_TRACE(attach_after ? "store attached after" : "store attached before");
    OrpheusDB db;
    SeedBranches(&db);
    std::unique_ptr<part::PartitionStore> stale;
    if (attach_after) {
      auto* model = dynamic_cast<SplitByRlistModel*>(
          db.GetCvd("t").ValueOrDie()->model());
      stale = std::make_unique<part::PartitionStore>(db.db(), "t",
                                                     model->DataTable());
      part::Partitioning partitioning;
      partitioning.groups = {{1, 2}, {3}};
      ASSERT_TRUE(
          stale->Build(partitioning, model->AllVersionRecords().ValueOrDie()).ok());
    } else {
      PartitionSeed(&db);
    }
    evolve(&db);
    if (attach_after) {
      ASSERT_TRUE(db.AttachPartitionStore("t", std::move(stale)).ok());
    }
    ASSERT_TRUE(db.Checkout("t", {3}, "w").ok());
    EditStaged(&db, "w");
    ExpectSameCommit(CommitStaged(&db, "w"), kept);
  }
}

// A checkout of a version with fewer attributes than the CVD projects
// the version's rows in memory: it adds the staged table and touches no
// other, such as a user's `w_fullattrs`.
TEST(CheckoutCatalogTest, NarrowVersionAddsOnlyTheStagedTable) {
  OrpheusDB db;
  SeedBranches(&db);
  ASSERT_TRUE(db.Checkout("t", {1}, "before").ok());
  ASSERT_TRUE(db.Checkout("t", {2}, "grow").ok());
  rel::Table* staged = db.db()->GetTable("grow").ValueOrDie();
  ASSERT_TRUE(staged->AddColumn("extra", rel::DataType::kInt64).ok());
  ASSERT_EQ(4, db.Commit("t", "grow", "add extra").ValueOrDie());
  ASSERT_TRUE(db.db()->Execute("CREATE TABLE w_fullattrs (x INT)").ok());
  ASSERT_TRUE(db.db()->Execute("INSERT INTO w_fullattrs VALUES (7)").ok());
  const std::vector<std::string> tables = db.db()->ListTables();

  const Status checkout = db.Checkout("t", {1}, "w");
  ASSERT_TRUE(checkout.ok()) << checkout.ToString();
  EXPECT_EQ(std::vector<std::string>{"w"}, TableChanges(tables, db.db()->ListTables()));
  // v1's own attributes, rows as checked out before the evolution.
  EXPECT_EQ(ChunkBytes(db.db()->GetTable("before").ValueOrDie()->data()),
            ChunkBytes(db.db()->GetTable("w").ValueOrDie()->data()));
  EXPECT_EQ(7,
            db.db()->Execute("SELECT x FROM w_fullattrs").ValueOrDie().Get(0, 0).AsInt());
}

// Fig. 9's cost model, counted exactly. Under the hash join, a
// partition-served checkout of v scans its partition's data table R_k,
// its versioning table V_k (the `WHERE vid = v` scan reads every row)
// and v's unnested rids; so Cavg, the mean |R_k| over versions, is the
// data-table part of the mean checkout.
TEST(PartitionCostTest, CheckoutScansPartitionPlusVersion) {
  OrpheusDB db;
  ASSERT_EQ(rel::JoinMethod::kHash, db.db()->join_method());
  SeedBranches(&db);
  // Two branches, v2 and v3, grow in turns to v13.
  VersionId heads[2] = {2, 3};
  for (int i = 0; i < 10; ++i) {
    VersionId& head = heads[i % 2];
    ASSERT_TRUE(db.Checkout("t", {head}, "w").ok());
    for (const std::string& sql :
         {"UPDATE w SET x = " + std::to_string(i) + " WHERE k = " + std::to_string(i % 8),
          "INSERT INTO w (k, s, x) VALUES (" + std::to_string(200 + i) + ", 'b', 0)"}) {
      ASSERT_TRUE(db.db()->Execute(sql).ok()) << sql;
    }
    head = db.Commit("t", "w", "grow").ValueOrDie();
  }
  Cvd* cvd = db.GetCvd("t").ValueOrDie();
  ASSERT_EQ(13, cvd->latest_version());
  const part::LyreSplitResult split =
      part::LyreSplit::Run(cvd->graph(), 0.5).ValueOrDie();
  ASSERT_TRUE(db.Repartition("t", split.partitioning).ok());
  const part::PartitionStore* store = db.partition_store("t");
  ASSERT_GT(store->num_partitions(), 1u);
  ASSERT_LT(store->num_partitions(), 13u);  // some partition holds several

  int64_t data_rows = 0;
  for (VersionId v = 1; v <= 13; ++v) {
    SCOPED_TRACE("v" + std::to_string(v));
    const auto [data_table, rlist_table] = store->TablesFor(v).ValueOrDie();
    const int64_t r_k = static_cast<int64_t>(
        db.db()->GetTable(data_table).ValueOrDie()->num_rows());
    const int64_t v_k = static_cast<int64_t>(
        db.db()->GetTable(rlist_table).ValueOrDie()->num_rows());
    const int64_t rids = static_cast<int64_t>(
        cvd->model()->VersionRecords(v).ValueOrDie().size());
    const std::string table = "chk" + std::to_string(v);
    EXPECT_EQ(r_k + v_k + rids, RowsScanned(&db, [&] {
                ASSERT_TRUE(db.Checkout("t", {v}, table).ok());
              }));
    data_rows += r_k;
  }
  EXPECT_EQ(static_cast<double>(data_rows) / 13.0, store->AvgCheckoutCost());
}

}  // namespace
}  // namespace orpheus::core
