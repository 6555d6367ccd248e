// End-to-end tests for the relstore engine: DDL, DML, scans, joins
// (all three algorithms), aggregation, unnest, the exact SQL shapes
// OrpheusDB's query translator emits (the paper's Table 1), and the
// chunk-boundary cases of the batched parallel scan pipeline, the
// flat hash-join table, and the consume-once projection.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "relstore/database.h"

namespace orpheus::rel {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE t (a INT, b TEXT, c DOUBLE)").ok());
    ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (1, 'x', 1.5), (2, 'y', 2.5), "
                            "(3, 'x', 3.5)").ok());
  }

  Chunk MustQuery(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : Chunk();
  }

  Database db_;
};

TEST_F(ExecutorTest, SelectStar) {
  Chunk out = MustQuery("SELECT * FROM t");
  EXPECT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.num_columns(), 3);
  EXPECT_EQ(out.schema().column(0).name, "a");  // unqualified output
}

TEST_F(ExecutorTest, WhereFilter) {
  Chunk out = MustQuery("SELECT a FROM t WHERE b = 'x'");
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.Get(0, 0).AsInt(), 1);
  EXPECT_EQ(out.Get(1, 0).AsInt(), 3);
}

TEST_F(ExecutorTest, ComputedProjection) {
  Chunk out = MustQuery("SELECT a * 10 + 1 AS v FROM t WHERE a >= 2");
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.schema().column(0).name, "v");
  EXPECT_EQ(out.Get(0, 0).AsInt(), 21);
}

TEST_F(ExecutorTest, SelectWithoutFrom) {
  Chunk out = MustQuery("SELECT 2 + 3 AS five");
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.Get(0, 0).AsInt(), 5);
}

TEST_F(ExecutorTest, OrderByAndLimit) {
  Chunk out = MustQuery("SELECT a FROM t ORDER BY a DESC LIMIT 2");
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.Get(0, 0).AsInt(), 3);
  EXPECT_EQ(out.Get(1, 0).AsInt(), 2);
}

TEST_F(ExecutorTest, Distinct) {
  Chunk out = MustQuery("SELECT DISTINCT b FROM t ORDER BY b");
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.Get(0, 0).AsString(), "x");
}

TEST_F(ExecutorTest, AggregatesWholeTable) {
  Chunk out = MustQuery("SELECT count(*), sum(a), avg(c), min(b), max(b) FROM t");
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.Get(0, 0).AsInt(), 3);
  EXPECT_EQ(out.Get(0, 1).AsInt(), 6);
  EXPECT_DOUBLE_EQ(out.Get(0, 2).AsDouble(), 2.5);
  EXPECT_EQ(out.Get(0, 3).AsString(), "x");
  EXPECT_EQ(out.Get(0, 4).AsString(), "y");
}

TEST_F(ExecutorTest, GroupByWithHaving) {
  Chunk out = MustQuery(
      "SELECT b, count(*) AS cnt FROM t GROUP BY b HAVING cnt > 1");
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.Get(0, 0).AsString(), "x");
  EXPECT_EQ(out.Get(0, 1).AsInt(), 2);
}

TEST_F(ExecutorTest, AggregateOnEmptyInput) {
  Chunk out = MustQuery("SELECT count(*), sum(a) FROM t WHERE a > 100");
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.Get(0, 0).AsInt(), 0);
  EXPECT_TRUE(out.Get(0, 1).is_null());
}

TEST_F(ExecutorTest, UpdateWithWhere) {
  ASSERT_TRUE(db_.Execute("UPDATE t SET c = c + 10 WHERE b = 'x'").ok());
  Chunk out = MustQuery("SELECT c FROM t ORDER BY a");
  EXPECT_DOUBLE_EQ(out.Get(0, 0).AsDouble(), 11.5);
  EXPECT_DOUBLE_EQ(out.Get(1, 0).AsDouble(), 2.5);
}

TEST_F(ExecutorTest, DeleteRows) {
  ASSERT_TRUE(db_.Execute("DELETE FROM t WHERE a = 2").ok());
  Chunk out = MustQuery("SELECT count(*) FROM t");
  EXPECT_EQ(out.Get(0, 0).AsInt(), 2);
}

TEST_F(ExecutorTest, SelectIntoCreatesTable) {
  ASSERT_TRUE(db_.Execute("SELECT a, b INTO t2 FROM t WHERE a < 3").ok());
  EXPECT_TRUE(db_.HasTable("t2"));
  Chunk out = MustQuery("SELECT count(*) FROM t2");
  EXPECT_EQ(out.Get(0, 0).AsInt(), 2);
}

TEST_F(ExecutorTest, InsertSelect) {
  ASSERT_TRUE(db_.Execute("SELECT a, b, c INTO t3 FROM t WHERE a = 1").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO t3 SELECT a, b, c FROM t WHERE a = 3").ok());
  Chunk out = MustQuery("SELECT count(*) FROM t3");
  EXPECT_EQ(out.Get(0, 0).AsInt(), 2);
}

TEST_F(ExecutorTest, DropTable) {
  ASSERT_TRUE(db_.Execute("DROP TABLE t").ok());
  EXPECT_FALSE(db_.HasTable("t"));
  EXPECT_FALSE(db_.Execute("DROP TABLE t").ok());
  EXPECT_TRUE(db_.Execute("DROP TABLE IF EXISTS t").ok());
}

TEST_F(ExecutorTest, ExecuteScriptReturnsLast) {
  auto r = db_.ExecuteScript(
      "CREATE TABLE s (x INT); INSERT INTO s VALUES (5); SELECT x FROM s;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 5);
}

// --- Consume-once projection ------------------------------------------
//
// Project moves a direct column out of an owned input when the
// selection is the identity and the column is referenced once; every
// other case gathers. These pin the result of each case.

TEST_F(ExecutorTest, DuplicateRefAndComputedItemOverDerivedTable) {
  Chunk r = MustQuery(
      "SELECT x.a, x.a, x.a + 1, x.b FROM (SELECT a, b FROM t) AS x");
  ASSERT_EQ(r.num_rows(), 3u);
  ASSERT_EQ(r.num_columns(), 4);
  for (size_t row = 0; row < 3; ++row) {
    const int64_t a = static_cast<int64_t>(row) + 1;
    EXPECT_EQ(r.Get(row, 0).AsInt(), a);
    EXPECT_EQ(r.Get(row, 1).AsInt(), a);
    EXPECT_EQ(r.Get(row, 2).AsInt(), a + 1);
  }
  EXPECT_EQ(r.Get(0, 3).AsString(), "x");
  EXPECT_EQ(r.Get(1, 3).AsString(), "y");
  EXPECT_EQ(r.Get(2, 3).AsString(), "x");
}

TEST_F(ExecutorTest, NonIdentitySelectionOverDerivedTableGathers) {
  Chunk r = MustQuery("SELECT * FROM (SELECT a, b FROM t) AS x WHERE x.a >= 2");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.Get(0, 0).AsInt(), 2);
  EXPECT_EQ(r.Get(0, 1).AsString(), "y");
  EXPECT_EQ(r.Get(1, 0).AsInt(), 3);
  EXPECT_EQ(r.Get(1, 1).AsString(), "x");
  // A pre-projection ORDER BY selects every row, but permuted.
  Chunk sorted = MustQuery(
      "SELECT x.a, x.b FROM (SELECT a, b, c FROM t) AS x ORDER BY x.c DESC");
  ASSERT_EQ(sorted.num_rows(), 3u);
  EXPECT_EQ(sorted.Get(0, 0).AsInt(), 3);
  EXPECT_EQ(sorted.Get(1, 0).AsInt(), 2);
  EXPECT_EQ(sorted.Get(2, 0).AsInt(), 1);
  EXPECT_EQ(sorted.Get(1, 1).AsString(), "y");
}

TEST_F(ExecutorTest, SelectStarLeavesBaseTableIntact) {
  for (int pass = 0; pass < 2; ++pass) {
    Chunk r = MustQuery("SELECT * FROM t");
    ASSERT_EQ(r.num_rows(), 3u) << "pass " << pass;
    EXPECT_EQ(r.Get(2, 0).AsInt(), 3);
    EXPECT_EQ(r.Get(1, 1).AsString(), "y");
    EXPECT_DOUBLE_EQ(r.Get(0, 2).AsDouble(), 1.5);
  }
  Chunk agg = MustQuery("SELECT count(*), sum(a) FROM t");
  EXPECT_EQ(agg.Get(0, 0).AsInt(), 3);
  EXPECT_EQ(agg.Get(0, 1).AsInt(), 6);
}

// --- Array handling: the versioning columns --------------------------

class ArrayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE comb (rid INT, val TEXT, vlist INT[])").ok());
    ASSERT_TRUE(db_.Execute("INSERT INTO comb VALUES "
                            "(1, 'a', ARRAY[1]), "
                            "(2, 'b', ARRAY[1, 2, 4]), "
                            "(3, 'c', ARRAY[1, 2, 3, 4]), "
                            "(4, 'd', ARRAY[2, 4])").ok());
  }
  Database db_;
};

TEST_F(ArrayTest, ContainmentOperator) {
  // The combined-table checkout shape from Table 1.
  auto r = db_.Execute("SELECT rid FROM comb WHERE ARRAY[2] <@ vlist");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 3u);
}

TEST_F(ArrayTest, ArrayAppendViaPlus) {
  // The combined-table commit shape from Table 1.
  ASSERT_TRUE(db_.Execute("SELECT rid INTO tp FROM comb WHERE ARRAY[4] <@ vlist").ok());
  ASSERT_TRUE(db_.Execute("UPDATE comb SET vlist = vlist + 9 WHERE rid IN "
                          "(SELECT rid FROM tp)").ok());
  auto r = db_.Execute("SELECT rid FROM comb WHERE ARRAY[9] <@ vlist");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_rows(), 3u);  // rids 2, 3, 4
}

TEST_F(ArrayTest, UnnestExpandsRows) {
  auto r = db_.Execute("SELECT unnest(vlist) AS v, rid FROM comb WHERE rid = 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Chunk& out = r.value();
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.Get(0, 0).AsInt(), 1);
  EXPECT_EQ(out.Get(2, 0).AsInt(), 4);
  EXPECT_EQ(out.Get(1, 1).AsInt(), 2);  // rid replicated
}

TEST_F(ArrayTest, ArraySubqueryInsert) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE vt (vid INT, rlist INT[])").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO vt VALUES "
                          "(1, ARRAY(SELECT rid FROM comb WHERE ARRAY[1] <@ vlist))").ok());
  auto r = db_.Execute("SELECT array_length(rlist) FROM vt WHERE vid = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 3);
}

TEST_F(ArrayTest, EmptyArrayLiteral) {
  ASSERT_TRUE(db_.Execute("INSERT INTO comb VALUES (9, 'e', ARRAY[])").ok());
  auto r = db_.Execute("SELECT array_length(vlist) FROM comb WHERE rid = 9");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 0);
}

// --- Joins ------------------------------------------------------------

class JoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute(
        "CREATE TABLE d (rid INT, payload TEXT, PRIMARY KEY (rid))").ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db_.Execute("INSERT INTO d VALUES (" + std::to_string(i) +
                              ", 'p" + std::to_string(i) + "')").ok());
    }
    ASSERT_TRUE(db_.Execute("CREATE TABLE v (vid INT, rlist INT[], "
                            "PRIMARY KEY (vid))").ok());
    ASSERT_TRUE(db_.Execute(
        "INSERT INTO v VALUES (1, ARRAY[5, 10, 15]), (2, ARRAY[0, 99])").ok());
  }

  // The split-by-rlist checkout query from Table 1.
  std::string CheckoutSql(int vid) {
    return "SELECT d.* INTO tprime FROM d, (SELECT unnest(rlist) AS rid_tmp "
           "FROM v WHERE vid = " + std::to_string(vid) +
           ") AS tmp WHERE d.rid = tmp.rid_tmp";
  }

  Database db_;
};

TEST_F(JoinTest, HashJoinCheckout) {
  db_.set_join_method(JoinMethod::kHash);
  ASSERT_TRUE(db_.Execute(CheckoutSql(1)).ok());
  auto r = db_.Execute("SELECT rid FROM tprime ORDER BY rid");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().num_rows(), 3u);
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 5);
  EXPECT_EQ(r.value().Get(2, 0).AsInt(), 15);
  // tprime must contain only d's columns (qualified star).
  EXPECT_EQ(r.value().num_columns(), 1);
  auto cols = db_.Execute("SELECT * FROM tprime LIMIT 1");
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols.value().num_columns(), 2);
}

TEST_F(JoinTest, CheckoutMovesJoinOutputAndLeavesDataIntact) {
  for (int vid : {1, 2, 1}) {
    ASSERT_TRUE(db_.Execute(CheckoutSql(vid)).ok()) << "vid " << vid;
    auto r = db_.Execute("SELECT * FROM tprime");
    ASSERT_TRUE(r.ok());
    const std::vector<int64_t> rids =
        vid == 1 ? std::vector<int64_t>{5, 10, 15} : std::vector<int64_t>{0, 99};
    ASSERT_EQ(r.value().num_rows(), rids.size());
    ASSERT_EQ(r.value().num_columns(), 2);
    for (size_t i = 0; i < rids.size(); ++i) {
      EXPECT_EQ(r.value().Get(i, 0).AsInt(), rids[i]);
      EXPECT_EQ(r.value().Get(i, 1).AsString(), "p" + std::to_string(rids[i]));
    }
    ASSERT_TRUE(db_.Execute("DROP TABLE tprime").ok());
  }
  auto d = db_.Execute("SELECT count(*), sum(rid) FROM d");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().Get(0, 0).AsInt(), 100);
  EXPECT_EQ(d.value().Get(0, 1).AsInt(), 4950);
  auto v = db_.Execute("SELECT rlist FROM v WHERE vid = 1");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().Get(0, 0).AsArray(), (IntArray{5, 10, 15}));
}

TEST_F(JoinTest, MergeJoinSameResult) {
  db_.set_join_method(JoinMethod::kMerge);
  ASSERT_TRUE(db_.Execute(CheckoutSql(2)).ok()) << "merge join checkout";
  auto r = db_.Execute("SELECT rid FROM tprime ORDER BY rid");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().num_rows(), 2u);
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 0);
  EXPECT_EQ(r.value().Get(1, 0).AsInt(), 99);
}

TEST_F(JoinTest, IndexNestedLoopSameResult) {
  db_.set_join_method(JoinMethod::kIndexNestedLoop);
  ASSERT_TRUE(db_.Execute(CheckoutSql(1)).ok());
  auto r = db_.Execute("SELECT count(*) FROM tprime");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 3);
  EXPECT_GT(db_.stats()->index_probes, 0);
}

TEST_F(JoinTest, JoinWithDuplicateKeysProducesAllPairs) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE l (k INT)").ok());
  ASSERT_TRUE(db_.Execute("CREATE TABLE r (k2 INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO l VALUES (1), (1), (2)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO r VALUES (1), (1), (3)").ok());
  auto res = db_.Execute("SELECT count(*) FROM l, r WHERE k = k2");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().Get(0, 0).AsInt(), 4);  // 2 x 2 matches on key 1
}

TEST_F(JoinTest, CrossJoinGuard) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE big (x INT)").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO big VALUES (1)").ok());
  }
  // 20 x 20 cross join is fine.
  auto small = db_.Execute("SELECT count(*) FROM big, (SELECT x AS y FROM big) AS b2");
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  EXPECT_EQ(small.value().Get(0, 0).AsInt(), 400);
}

TEST_F(JoinTest, StatsAccumulateAndReset) {
  db_.ResetStats();
  ASSERT_TRUE(db_.Execute("SELECT count(*) FROM d").ok());
  EXPECT_GE(db_.stats()->rows_scanned, 100);
  db_.ResetStats();
  EXPECT_EQ(db_.stats()->rows_scanned, 0);
}

// --- Batch-boundary cases of the parallel scan pipeline ---------------
//
// Parameterized over the thread setting so every case runs both on the
// serial path (--threads=1) and on the pool (--threads=4). The batched
// executor must behave identically at 0 rows, 1 row, exactly one batch,
// one-past-a-batch, and when a predicate selects nothing.

class BatchBoundaryTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { SetExecThreads(GetParam()); }
  void TearDown() override { SetExecThreads(0); }

  // Builds table `name` (a INT, val DOUBLE) with rows a = 0..n-1,
  // val = a * 0.5, appended through the bulk path (fast enough to
  // cross batch boundaries in a unit test).
  void BuildTable(Database* db, const std::string& name, size_t n) {
    ASSERT_TRUE(db->Execute("CREATE TABLE " + name + " (a INT, val DOUBLE)").ok());
    auto table = db->GetTable(name);
    ASSERT_TRUE(table.ok());
    Chunk& chunk = table.value()->mutable_chunk();
    for (size_t i = 0; i < n; ++i) {
      chunk.mutable_column(0).AppendInt(static_cast<int64_t>(i));
      chunk.mutable_column(1).Append(Value::Double(static_cast<double>(i) * 0.5));
    }
  }
};

TEST_P(BatchBoundaryTest, EmptyTable) {
  Database db;
  BuildTable(&db, "t", 0);
  auto scan = db.Execute("SELECT a FROM t WHERE a >= 0");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan.value().num_rows(), 0u);
  auto agg = db.Execute("SELECT count(*), sum(val) FROM t");
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg.value().Get(0, 0).AsInt(), 0);
  EXPECT_TRUE(agg.value().Get(0, 1).is_null());
  auto grouped = db.Execute("SELECT a, count(*) FROM t GROUP BY a");
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped.value().num_rows(), 0u);
}

TEST_P(BatchBoundaryTest, SingleRow) {
  Database db;
  BuildTable(&db, "t", 1);
  auto scan = db.Execute("SELECT a, val * 2.0 FROM t WHERE a = 0");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan.value().num_rows(), 1u);
  EXPECT_EQ(scan.value().Get(0, 0).AsInt(), 0);
  auto agg = db.Execute("SELECT count(*), min(a), max(a) FROM t");
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg.value().Get(0, 0).AsInt(), 1);
}

TEST_P(BatchBoundaryTest, PredicateSelectsZeroRows) {
  Database db;
  BuildTable(&db, "t", kScanBatchRows * 2 + 5);
  auto scan = db.Execute("SELECT a FROM t WHERE a < 0");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan.value().num_rows(), 0u);
  auto agg = db.Execute("SELECT sum(a) FROM t WHERE a < 0");
  ASSERT_TRUE(agg.ok());
  EXPECT_TRUE(agg.value().Get(0, 0).is_null());
}

TEST_P(BatchBoundaryTest, ExactlyOneBatchAndOnePast) {
  Database db;
  BuildTable(&db, "exact", kScanBatchRows);
  BuildTable(&db, "past", kScanBatchRows + 1);
  for (const std::string& name : {std::string("exact"), std::string("past")}) {
    size_t n = name == "exact" ? kScanBatchRows : kScanBatchRows + 1;
    auto count = db.Execute("SELECT count(*) FROM " + name + " WHERE a % 2 = 0");
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(count.value().Get(0, 0).AsInt(),
              static_cast<int64_t>((n + 1) / 2))
        << name;
    // Selection order must be row order across the batch seam.
    auto rows = db.Execute("SELECT a FROM " + name + " WHERE a >= " +
                           std::to_string(kScanBatchRows - 2));
    ASSERT_TRUE(rows.ok());
    for (size_t i = 0; i < rows.value().num_rows(); ++i) {
      EXPECT_EQ(rows.value().Get(i, 0).AsInt(),
                static_cast<int64_t>(kScanBatchRows - 2 + i))
          << name;
    }
  }
}

TEST_P(BatchBoundaryTest, GroupOrderIsFirstOccurrenceAcrossBatches) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE g (k INT)").ok());
  auto table = db.GetTable("g");
  ASSERT_TRUE(table.ok());
  Chunk& chunk = table.value()->mutable_chunk();
  // Key i first appears at row i * 700, so later batches introduce
  // new keys and earlier keys recur across every batch seam.
  const size_t n = kScanBatchRows * 3;
  for (size_t i = 0; i < n; ++i) {
    chunk.mutable_column(0).AppendInt(static_cast<int64_t>(i / 700));
  }
  auto grouped = db.Execute("SELECT k, count(*) FROM g GROUP BY k");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  // Without ORDER BY, groups surface in first-occurrence row order.
  for (size_t i = 0; i < grouped.value().num_rows(); ++i) {
    EXPECT_EQ(grouped.value().Get(i, 0).AsInt(), static_cast<int64_t>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadSettings, BatchBoundaryTest,
                         ::testing::Values(1, 4));

// --- Flat hash-join table -----------------------------------------------
//
// The single-INT-key hash join against a nested-loop reference at
// --threads 1 and 4. The hash join builds on the smaller input (the
// right one on a tie) and emits, per probe row in order, the build
// rows holding its key in ascending order; the reference loops the
// same way, so it fixes the output order as well as the match set.

using JoinKeys = std::vector<std::optional<int64_t>>;

class FlatHashJoinTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { SetExecThreads(GetParam()); }
  void TearDown() override { SetExecThreads(0); }

  // Table `name` (id INT, k INT) with id = row number; nullopt is NULL.
  static void BuildTable(Database* db, const std::string& name,
                         const JoinKeys& keys) {
    ASSERT_TRUE(db->Execute("CREATE TABLE " + name + " (id INT, k INT)").ok());
    Chunk& chunk = db->GetTable(name).value()->mutable_chunk();
    for (size_t i = 0; i < keys.size(); ++i) {
      chunk.mutable_column(0).AppendInt(static_cast<int64_t>(i));
      chunk.mutable_column(1).Append(keys[i] ? Value::Int(*keys[i])
                                             : Value::Null());
    }
  }

  // Joins l and r on k, in both FROM orders, and checks the
  // (l.id, r.id) pairs against the nested-loop reference.
  static void ExpectJoinMatchesReference(const JoinKeys& l, const JoinKeys& r) {
    for (bool swap : {false, true}) {
      const JoinKeys& left = swap ? r : l;
      const JoinKeys& right = swap ? l : r;
      Database db;
      BuildTable(&db, "lt", left);
      BuildTable(&db, "rt", right);
      auto res = db.Execute("SELECT lt.id, rt.id FROM lt, rt WHERE lt.k = rt.k");
      ASSERT_TRUE(res.ok()) << res.status().ToString();

      const bool build_right = right.size() <= left.size();
      const JoinKeys& probe = build_right ? left : right;
      const JoinKeys& build = build_right ? right : left;
      std::vector<std::pair<int64_t, int64_t>> expect;
      for (size_t p = 0; p < probe.size(); ++p) {
        for (size_t b = 0; b < build.size(); ++b) {
          if (!probe[p] || !build[b] || *probe[p] != *build[b]) continue;
          const auto pi = static_cast<int64_t>(p);
          const auto bi = static_cast<int64_t>(b);
          expect.emplace_back(build_right ? pi : bi, build_right ? bi : pi);
        }
      }
      const Chunk& out = res.value();
      ASSERT_EQ(out.num_rows(), expect.size()) << "swap " << swap;
      for (size_t i = 0; i < expect.size(); ++i) {
        ASSERT_EQ(out.Get(i, 0).AsInt(), expect[i].first)
            << "swap " << swap << " row " << i;
        ASSERT_EQ(out.Get(i, 1).AsInt(), expect[i].second)
            << "swap " << swap << " row " << i;
      }
    }
  }
};

TEST_P(FlatHashJoinTest, DuplicateBuildKeysMatchInBuildRowOrder) {
  ExpectJoinMatchesReference({5, 3, 9, 5, 1, 3, 5},
                             {5, 3, 5, 5, 3});
  // Equal sizes: the right side is the build side in both FROM orders.
  ExpectJoinMatchesReference({2, 2, 1, 2}, {2, 1, 2, 2});
}

TEST_P(FlatHashJoinTest, NullKeysNeverJoin) {
  // NULL is stored as the placeholder 0, beside genuine zeros.
  ExpectJoinMatchesReference({std::nullopt, 0, 1, std::nullopt, 0, 2},
                             {0, std::nullopt, 2, std::nullopt});
  ExpectJoinMatchesReference({std::nullopt, std::nullopt, std::nullopt},
                             {std::nullopt, 0});
}

TEST_P(FlatHashJoinTest, ExtremeAndNegativeKeys) {
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  ExpectJoinMatchesReference({lo, hi, 0, -1, -42, lo, 1, hi - 1, lo + 1},
                             {hi, lo, -42, 0, 5, -1, lo});
}

TEST_P(FlatHashJoinTest, KeysSharingAHomeSlot) {
  // 3000 build rows get 8192 slots. Keys that are multiples of the
  // slot count (positive and negative, three rows each) all share
  // slot 0 under a low-bits hash; the dense random keys collide under
  // any hash. The probe side also holds keys absent from the table.
  const int64_t slots = 8192;
  JoinKeys build;
  for (int64_t i = 0; i < 3000; ++i) build.push_back(((i % 1000) - 500) * slots);
  JoinKeys probe;
  for (int64_t i = 0; i < 4500; ++i) probe.push_back(((i * 7) % 1500 - 700) * slots);
  ExpectJoinMatchesReference(probe, build);

  Rng rng(GetParam());
  JoinKeys dense_build;
  JoinKeys dense_probe;
  for (int i = 0; i < 3000; ++i) {
    dense_build.push_back(static_cast<int64_t>(rng.Uniform(4000)) - 2000);
  }
  for (int i = 0; i < 5000; ++i) {
    dense_probe.push_back(static_cast<int64_t>(rng.Uniform(5000)) - 2500);
  }
  ExpectJoinMatchesReference(dense_probe, dense_build);
}

TEST_P(FlatHashJoinTest, EmptySides) {
  ExpectJoinMatchesReference({1, 2, 3}, {});
  ExpectJoinMatchesReference({}, {});
}

INSTANTIATE_TEST_SUITE_P(ThreadSettings, FlatHashJoinTest,
                         ::testing::Values(1, 4));

// --- Index-nested-loop counters ------------------------------------------
//
// The Figure 19 experiments read the INL join's execution counters, so
// they are pinned exactly: index_probes counts the non-NULL outer keys,
// rows_scanned the outer rows, and pages_read the distinct inner pages
// holding a match when the inner table is clustered on the join key,
// else one page per outer row capped at the inner table's page count.
// The output must equal the hash join's, row for row: the inner side is
// the smaller, so the hash join builds on it and probes the outer side
// in row order, as INL does.

class InlCountersTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { SetExecThreads(GetParam()); }
  void TearDown() override { SetExecThreads(0); }

  // Table `name` (id INT, k INT) with id = row number; nullopt is NULL.
  static Table* BuildTable(Database* db, const std::string& name,
                           const JoinKeys& keys) {
    EXPECT_TRUE(db->Execute("CREATE TABLE " + name + " (id INT, k INT)").ok());
    Table* table = db->GetTable(name).value();
    Chunk& chunk = table->mutable_chunk();
    for (size_t i = 0; i < keys.size(); ++i) {
      chunk.mutable_column(0).AppendInt(static_cast<int64_t>(i));
      chunk.mutable_column(1).Append(keys[i] ? Value::Int(*keys[i])
                                             : Value::Null());
    }
    return table;
  }
};

TEST_P(InlCountersTest, ExactCountsAndHashJoinOutput) {
  Rng rng(21);
  // Inner: ~4 rows per key over [0, 1000), a few NULLs; several pages.
  JoinKeys inner_keys;
  for (int i = 0; i < 4000; ++i) {
    if (i % 97 == 0) {
      inner_keys.push_back(std::nullopt);
    } else {
      inner_keys.push_back(static_cast<int64_t>(rng.Uniform(1000)));
    }
  }
  // Outer: three batches; NULLs, hits in the low fifth of the inner key
  // range, and misses.
  JoinKeys outer_keys;
  for (int i = 0; i < 6000; ++i) {
    if (i % 13 == 0) {
      outer_keys.push_back(std::nullopt);
    } else if (i % 2 == 0) {
      outer_keys.push_back(static_cast<int64_t>(rng.Uniform(200)));
    } else {
      outer_keys.push_back(100000 + static_cast<int64_t>(rng.Uniform(50)));
    }
  }

  for (bool clustered : {false, true}) {
    Database db;
    Table* inner = BuildTable(&db, "inner_t", inner_keys);
    BuildTable(&db, "outer_t", outer_keys);
    if (clustered) {
      ASSERT_TRUE(inner->ClusterBy("k").ok());
    }
    ASSERT_TRUE(inner->DeclareIndex("k").ok());
    ASSERT_GT(inner->num_pages(), 4);

    // Reference counters from the table's current physical order.
    const Column& ikeys = inner->data().column(1);
    int64_t probes = 0;
    std::vector<bool> page_hit(static_cast<size_t>(inner->num_pages()), false);
    for (const std::optional<int64_t>& key : outer_keys) {
      if (!key) continue;
      ++probes;
      for (size_t r = 0; r < ikeys.size(); ++r) {
        if (!ikeys.IsNull(r) && ikeys.ints()[r] == *key) {
          page_hit[static_cast<size_t>(inner->PageOfRow(r))] = true;
        }
      }
    }
    const auto rows = static_cast<int64_t>(outer_keys.size());
    const int64_t pages =
        clustered ? std::count(page_hit.begin(), page_hit.end(), true)
                  : std::min(rows, inner->num_pages());
    if (clustered) {
      ASSERT_LT(pages, inner->num_pages());
    }

    for (const std::string& sql :
         {std::string("SELECT o.id, i.id FROM outer_t o, inner_t i "
                      "WHERE o.k = i.k"),
          std::string("SELECT i.id, o.id FROM inner_t i, outer_t o "
                      "WHERE i.k = o.k")}) {
      const std::string context =
          (clustered ? "clustered: " : "unclustered: ") + sql;
      db.set_join_method(JoinMethod::kHash);
      auto hash = db.Execute(sql);
      ASSERT_TRUE(hash.ok()) << context << " " << hash.status().ToString();
      db.set_join_method(JoinMethod::kIndexNestedLoop);
      db.ResetStats();
      auto inl = db.Execute(sql);
      ASSERT_TRUE(inl.ok()) << context << " " << inl.status().ToString();
      EXPECT_EQ(db.stats()->index_probes, probes) << context;
      EXPECT_EQ(db.stats()->rows_scanned, rows) << context;
      EXPECT_EQ(db.stats()->pages_read, pages) << context;
      ASSERT_GT(hash.value().num_rows(), kScanBatchRows) << context;
      ASSERT_EQ(inl.value().num_rows(), hash.value().num_rows()) << context;
      for (size_t r = 0; r < hash.value().num_rows(); ++r) {
        for (int c = 0; c < 2; ++c) {
          ASSERT_EQ(inl.value().Get(r, c).AsInt(), hash.value().Get(r, c).AsInt())
              << context << " row " << r << " col " << c;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadSettings, InlCountersTest,
                         ::testing::Values(1, 4));

// --- Computed column types ---------------------------------------------

// A computed or grouped column whose first row or group is NULL still
// takes the type of its values: a key column keeps its key's type, and
// anything else its first non-NULL value's. A value the column cannot
// hold is an error, never a silent 0.
TEST(ComputedColumnTypeTest, LeadingNullDoesNotTypeTheColumn) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (g INT, d DOUBLE, s TEXT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, NULL, NULL), (2, 1.5, 'x'), "
                         "(3, -0.0, 'y'), (4, 0.0, 'y')")
                  .ok());
  auto grouped = db.Execute("SELECT s, count(*) FROM t GROUP BY s");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  ASSERT_EQ(3u, grouped.value().num_rows());
  EXPECT_EQ(DataType::kString, grouped.value().schema().column(0).type);
  EXPECT_TRUE(grouped.value().Get(0, 0).is_null());
  EXPECT_EQ("x", grouped.value().Get(1, 0).AsString());
  EXPECT_EQ("y", grouped.value().Get(2, 0).AsString());
  EXPECT_EQ(2, grouped.value().Get(2, 1).AsInt());

  auto computed = db.Execute("SELECT g, d * 2 FROM t");
  ASSERT_TRUE(computed.ok()) << computed.status().ToString();
  EXPECT_EQ(DataType::kDouble, computed.value().schema().column(1).type);
  EXPECT_TRUE(computed.value().Get(0, 1).is_null());
  EXPECT_EQ(3.0, computed.value().Get(1, 1).AsDouble());

  ASSERT_TRUE(db.Execute("CREATE TABLE u (g INT, d DOUBLE)").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO u VALUES (1, NULL), (2, 1.5), (2, 2.5)").ok());
  auto agg = db.Execute("SELECT g, min(d), sum(d) FROM u GROUP BY g");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  ASSERT_EQ(2u, agg.value().num_rows());
  EXPECT_TRUE(agg.value().Get(0, 1).is_null());
  EXPECT_TRUE(agg.value().Get(0, 2).is_null());
  EXPECT_EQ(1.5, agg.value().Get(1, 1).AsDouble());
  EXPECT_EQ(4.0, agg.value().Get(1, 2).AsDouble());

  // coalesce(s, g) yields INT 1 first, then TEXT: refused.
  EXPECT_EQ(StatusCode::kInvalidArgument,
            db.Execute("SELECT coalesce(s, g) FROM t").status().code());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            db.Execute("SELECT coalesce(s, g), count(*) FROM t "
                       "GROUP BY coalesce(s, g)")
                .status()
                .code());
  // A mix of INT and DOUBLE makes a DOUBLE column, in either row order.
  for (const char* order : {"ASC", "DESC"}) {
    auto widened = db.Execute(
        std::string("SELECT coalesce(d, g) FROM t ORDER BY g ") + order);
    ASSERT_TRUE(widened.ok()) << widened.status().ToString();
    EXPECT_EQ(DataType::kDouble, widened.value().schema().column(0).type);
    EXPECT_EQ(1.0, widened.value().Get(order[0] == 'A' ? 0 : 3, 0).AsDouble());
  }
}

TEST(ComputedColumnTypeTest, MixedTypeGroupKeyKeepsTypesApart) {
  // coalesce(d, g) is INT 1 for the rows with a NULL d and DOUBLE 1.0
  // for the other: two groups, whichever row comes first.
  for (bool int_first : {true, false}) {
    Database db;
    ASSERT_TRUE(db.Execute("CREATE TABLE v (g INT, d DOUBLE)").ok());
    const char* rows = int_first ? "(1, NULL), (5, 1.0), (1, NULL)"
                                 : "(5, 1.0), (1, NULL), (1, NULL)";
    ASSERT_TRUE(db.Execute(std::string("INSERT INTO v VALUES ") + rows).ok());
    auto grouped = db.Execute(
        "SELECT coalesce(d, g), count(*) FROM v GROUP BY coalesce(d, g)");
    ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
    const Chunk& out = grouped.value();
    ASSERT_EQ(2u, out.num_rows()) << int_first;
    EXPECT_EQ(DataType::kDouble, out.schema().column(0).type);
    EXPECT_EQ(1.0, out.Get(0, 0).AsDouble());
    EXPECT_EQ(1.0, out.Get(1, 0).AsDouble());
    EXPECT_EQ(int_first ? 2 : 1, out.Get(0, 1).AsInt());
    EXPECT_EQ(int_first ? 1 : 2, out.Get(1, 1).AsInt());
  }
}

// --- DML typing and atomicity ----------------------------------------------

// Rows of `table` as text, in storage order ("1|100|1|a", NULL as "NULL").
std::vector<std::string> TableRows(Database* db, const std::string& table) {
  auto all = db->Execute("SELECT * FROM " + table);
  EXPECT_TRUE(all.ok()) << all.status().ToString();
  std::vector<std::string> out;
  for (size_t r = 0; r < all.value().num_rows(); ++r) {
    std::string row;
    for (int c = 0; c < all.value().num_columns(); ++c) {
      row += (c > 0 ? "|" : "") + all.value().Get(r, c).ToString();
    }
    out.push_back(row);
  }
  return out;
}

// A selected column enters a table column when Column::ConvertTo can
// widen it (INT to DOUBLE, INT or DOUBLE to TEXT); any other mismatch
// is refused and the table keeps its rows. A DOUBLE column gathered
// into an INT one used to read past the end of the source.
TEST(DmlTypingTest, InsertSelectWidensOrRefusesEachColumn) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE u (x DOUBLE, y TEXT)").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO u VALUES (1.5, 'p'), (2.5, 'q'), (NULL, 'r')").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INT, a INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 10)").ok());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            db.Execute("INSERT INTO t SELECT x, y FROM u").status().code());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            db.Execute("INSERT INTO t SELECT a, x FROM t, u").status().code());
  EXPECT_EQ(std::vector<std::string>({"1|10"}), TableRows(&db, "t"));

  ASSERT_TRUE(db.Execute("CREATE TABLE w (d DOUBLE, s TEXT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO w SELECT k, a FROM t").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO w SELECT x, x FROM u").ok());
  auto w = db.Execute("SELECT d, s FROM w");
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ(DataType::kDouble, w.value().Get(0, 0).type());
  EXPECT_EQ(DataType::kString, w.value().Get(0, 1).type());
  EXPECT_EQ(std::vector<std::string>(
                {"1|10", "1.5|1.5", "2.5|2.5", "NULL|NULL"}),
            TableRows(&db, "w"));
}

// VALUES and SET values enter their columns by the same rule.
TEST(DmlTypingTest, ValuesEnterColumnsByTheWideningRule) {
  Database db;
  ASSERT_TRUE(
      db.Execute("CREATE TABLE t (k INT, a INT, d DOUBLE, s TEXT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 100, 1.0, 'a'), "
                         "(2, 200, 2.0, 'b'), (3, 300, 3.0, 'c')")
                  .ok());
  const std::vector<std::string> before = TableRows(&db, "t");
  // 4.75 cannot enter INT column a.
  EXPECT_EQ(StatusCode::kInvalidArgument,
            db.Execute("INSERT INTO t VALUES (4, 4.75, 7, 8)").status().code());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            db.Execute("UPDATE t SET a = d").status().code());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            db.Execute("UPDATE t SET a = 'oops'").status().code());
  EXPECT_EQ(before, TableRows(&db, "t"));

  // INT widens to DOUBLE and to TEXT.
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (4, 4, 7, 8)").ok());
  ASSERT_TRUE(db.Execute("UPDATE t SET s = d * 2 WHERE k = 1").ok());
  ASSERT_TRUE(db.Execute("UPDATE t SET d = k, a = NULL WHERE k >= 3").ok());
  EXPECT_EQ(std::vector<std::string>(
                {"1|100|1|2", "2|200|2|b", "3|NULL|3|c", "4|NULL|4|8"}),
            TableRows(&db, "t"));
  auto types = db.Execute("SELECT d, s FROM t WHERE k = 4");
  ASSERT_TRUE(types.ok());
  EXPECT_EQ(DataType::kDouble, types.value().Get(0, 0).type());
  EXPECT_EQ(DataType::kString, types.value().Get(0, 1).type());
}

// A statement that fails on one row changes no row: UPDATE evaluates
// every assignment and INSERT every VALUES row before writing any.
TEST(DmlTypingTest, FailingStatementLeavesTheTableUnchanged) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INT, a INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)").ok());
  const std::vector<std::string> before = TableRows(&db, "t");
  // Fails at k = 2, after row 1 would have been written.
  EXPECT_EQ(StatusCode::kInvalidArgument,
            db.Execute("UPDATE t SET a = 100 / (k - 2) + 1000").status().code());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            db.Execute("UPDATE t SET k = k + 10, a = 1 / (a - 3) WHERE k > 1")
                .status()
                .code());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            db.Execute("INSERT INTO t VALUES (5, 50), (6, 1 / 0)").status().code());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            db.Execute("DELETE FROM t WHERE 1 / (k - 3) > 0").status().code());
  EXPECT_EQ(before, TableRows(&db, "t"));

  // WHERE selects the rows through the executor's filter, across
  // several scan batches.
  ASSERT_TRUE(db.Execute("DELETE FROM t").ok());
  std::string values;
  for (int k = 0; k < 5000; ++k) {
    values += (k > 0 ? ", (" : "(") + std::to_string(k) + ", 0)";
  }
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES " + values).ok());
  ASSERT_TRUE(db.Execute("UPDATE t SET a = k * 2 WHERE k % 3 = 0").ok());
  ASSERT_TRUE(db.Execute("DELETE FROM t WHERE k % 5 = 0").ok());
  auto r = db.Execute("SELECT count(*), sum(a) FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  int64_t count = 0;
  int64_t sum = 0;
  for (int k = 0; k < 5000; ++k) {
    if (k % 5 == 0) continue;
    ++count;
    sum += k % 3 == 0 ? 2 * k : 0;
  }
  EXPECT_EQ(count, r.value().Get(0, 0).AsInt());
  EXPECT_EQ(sum, r.value().Get(0, 1).AsInt());
}

// --- Error paths -------------------------------------------------------

TEST(ExecutorErrorTest, UnknownTableAndColumn) {
  Database db;
  EXPECT_EQ(db.Execute("SELECT * FROM nope").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  EXPECT_FALSE(db.Execute("SELECT b FROM t").ok());
  EXPECT_FALSE(db.Execute("UPDATE t SET b = 1").ok());
}

TEST(ExecutorErrorTest, ArityMismatch) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b INT)").ok());
  EXPECT_FALSE(db.Execute("INSERT INTO t VALUES (1)").ok());
}

TEST(ExecutorErrorTest, DivisionByZero) {
  Database db;
  EXPECT_FALSE(db.Execute("SELECT 1 / 0").ok());
}

TEST(ExecutorErrorTest, SumOutOfIntRange) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (9223372036854775807), (1)").ok());
  EXPECT_EQ(db.Execute("SELECT sum(a) FROM t").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExecutorErrorTest, IntoExistingTable) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
  EXPECT_EQ(db.Execute("SELECT a INTO t FROM t").status().code(),
            StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace orpheus::rel
