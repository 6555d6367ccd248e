// Property-style tests of the relstore engine against reference
// implementations, over randomized inputs: filters, aggregation, the
// agreement of the three join algorithms, DML consistency, schema
// evolution, the sorted-array codec, and the bit-identical agreement
// of the parallel scan path with the serial one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "relstore/database.h"

namespace orpheus::rel {
namespace {

// Builds a table of `n` rows with columns (id INT, bucket INT, val
// DOUBLE) where bucket in [0, buckets).
void BuildRandomTable(Database* db, const std::string& name, int n, int buckets,
                      Rng* rng, std::vector<std::tuple<int64_t, int64_t, double>>* rows) {
  ASSERT_TRUE(db->Execute("CREATE TABLE " + name +
                          " (id INT, bucket INT, val DOUBLE, PRIMARY KEY (id))")
                  .ok());
  auto table = db->GetTable(name);
  ASSERT_TRUE(table.ok());
  Chunk& chunk = table.value()->mutable_chunk();
  for (int i = 0; i < n; ++i) {
    int64_t bucket = static_cast<int64_t>(rng->Uniform(static_cast<uint64_t>(buckets)));
    double val = rng->NextDouble() * 100;
    chunk.mutable_column(0).AppendInt(i);
    chunk.mutable_column(1).AppendInt(bucket);
    chunk.mutable_column(2).Append(Value::Double(val));
    if (rows != nullptr) rows->emplace_back(i, bucket, val);
  }
}

// Exact binary equality for result cells: doubles must match
// bit-for-bit, not just numerically (the parallel executor's
// determinism contract).
bool BitsEqual(const Value& a, const Value& b) {
  if (a.is_null() != b.is_null()) return false;
  if (a.is_null()) return true;
  if (a.type() != b.type()) return false;
  if (a.type() == DataType::kDouble) {
    double x = a.AsDouble();
    double y = b.AsDouble();
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  }
  return a.Equals(b);
}

// Asserts two result chunks are bit-identical: same shape, same row
// order, same bits in every cell.
void ExpectChunksBitIdentical(const Chunk& expect, const Chunk& actual,
                              const std::string& context) {
  ASSERT_EQ(expect.num_rows(), actual.num_rows()) << context;
  ASSERT_EQ(expect.num_columns(), actual.num_columns()) << context;
  for (size_t r = 0; r < expect.num_rows(); ++r) {
    for (int c = 0; c < expect.num_columns(); ++c) {
      ASSERT_TRUE(BitsEqual(expect.Get(r, c), actual.Get(r, c)))
          << context << " row " << r << " col " << c << ": "
          << expect.Get(r, c).ToString() << " vs "
          << actual.Get(r, c).ToString();
    }
  }
}

class RandomFilterTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomFilterTest, FilterMatchesReference) {
  Rng rng(GetParam());
  Database db;
  std::vector<std::tuple<int64_t, int64_t, double>> rows;
  BuildRandomTable(&db, "t", 500, 10, &rng, &rows);

  for (int64_t threshold : {0, 3, 7, 10}) {
    auto r = db.Execute("SELECT count(*) FROM t WHERE bucket >= " +
                        std::to_string(threshold) + " AND val < 50.0");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    int64_t expected = 0;
    for (const auto& [id, bucket, val] : rows) {
      if (bucket >= threshold && val < 50.0) ++expected;
    }
    EXPECT_EQ(r.value().Get(0, 0).AsInt(), expected) << "threshold " << threshold;
  }
}

TEST_P(RandomFilterTest, GroupByMatchesReference) {
  Rng rng(GetParam() + 1000);
  Database db;
  std::vector<std::tuple<int64_t, int64_t, double>> rows;
  BuildRandomTable(&db, "t", 400, 7, &rng, &rows);

  auto r = db.Execute(
      "SELECT bucket, count(*) AS cnt, sum(val) AS total, min(val), max(val) "
      "FROM t GROUP BY bucket ORDER BY bucket");
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  std::map<int64_t, std::tuple<int64_t, double, double, double>> reference;
  for (const auto& [id, bucket, val] : rows) {
    auto it = reference.find(bucket);
    if (it == reference.end()) {
      reference[bucket] = {1, val, val, val};
    } else {
      auto& [cnt, sum, mn, mx] = it->second;
      ++cnt;
      sum += val;
      mn = std::min(mn, val);
      mx = std::max(mx, val);
    }
  }
  ASSERT_EQ(r.value().num_rows(), reference.size());
  size_t row = 0;
  for (const auto& [bucket, agg] : reference) {
    EXPECT_EQ(r.value().Get(row, 0).AsInt(), bucket);
    EXPECT_EQ(r.value().Get(row, 1).AsInt(), std::get<0>(agg));
    EXPECT_NEAR(r.value().Get(row, 2).AsDouble(), std::get<1>(agg), 1e-6);
    EXPECT_NEAR(r.value().Get(row, 3).AsDouble(), std::get<2>(agg), 1e-9);
    EXPECT_NEAR(r.value().Get(row, 4).AsDouble(), std::get<3>(agg), 1e-9);
    ++row;
  }
}

TEST_P(RandomFilterTest, JoinMethodsAgree) {
  Rng rng(GetParam() + 2000);
  Database db;
  BuildRandomTable(&db, "left_t", 300, 40, &rng, nullptr);
  BuildRandomTable(&db, "right_t", 200, 40, &rng, nullptr);
  // Join on bucket (non-unique on both sides: all pairs must appear).
  const std::string query =
      "SELECT count(*), sum(l.id), sum(r.id) FROM left_t l, right_t r "
      "WHERE l.bucket = r.bucket";
  std::vector<std::vector<Value>> results;
  for (JoinMethod method :
       {JoinMethod::kHash, JoinMethod::kMerge, JoinMethod::kIndexNestedLoop}) {
    db.set_join_method(method);
    auto r = db.Execute(query);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    results.push_back({r.value().Get(0, 0), r.value().Get(0, 1), r.value().Get(0, 2)});
  }
  for (size_t m = 1; m < results.size(); ++m) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_TRUE(results[0][c].Equals(results[m][c]))
          << "method " << m << " column " << c << ": "
          << results[0][c].ToString() << " vs " << results[m][c].ToString();
    }
  }
}

TEST_P(RandomFilterTest, DeleteThenCountConsistent) {
  Rng rng(GetParam() + 3000);
  Database db;
  std::vector<std::tuple<int64_t, int64_t, double>> rows;
  BuildRandomTable(&db, "t", 300, 5, &rng, &rows);
  ASSERT_TRUE(db.Execute("DELETE FROM t WHERE bucket = 2").ok());
  auto total = db.Execute("SELECT count(*) FROM t");
  ASSERT_TRUE(total.ok());
  int64_t expected = 0;
  for (const auto& [id, bucket, val] : rows) {
    if (bucket != 2) ++expected;
  }
  EXPECT_EQ(total.value().Get(0, 0).AsInt(), expected);
  auto gone = db.Execute("SELECT count(*) FROM t WHERE bucket = 2");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone.value().Get(0, 0).AsInt(), 0);
}

// Parallel execution regression (ISSUE 2): --threads=N must be
// BIT-identical to --threads=1 on the property corpus — same rows,
// same order, and exact binary equality for doubles (the executor's
// fixed batch decomposition guarantees identical float rounding for
// every thread count).
TEST_P(RandomFilterTest, ParallelExecutionBitIdenticalToSerial) {
  // Restore the hardware default even when an ASSERT exits the test
  // early, so a failure here can't bleed into the rest of the suite.
  struct ExecThreadsRestorer {
    ~ExecThreadsRestorer() { SetExecThreads(0); }
  } restore_threads;

  const std::vector<std::string> queries = {
      // Filter + computed projection crossing several batches.
      "SELECT id, val * 3.0 + bucket FROM t WHERE val < 66.0 AND bucket >= 2",
      // Grouped float aggregation (the merge-sensitive path).
      "SELECT bucket, count(*), sum(val), avg(val), min(val), max(val) "
      "FROM t GROUP BY bucket",
      // Global aggregate, no grouping.
      "SELECT count(*), sum(val), min(id), max(id) FROM t WHERE bucket <> 3",
      // Order by a float expression (sort keys computed per row).
      "SELECT id FROM t WHERE bucket < 9 ORDER BY val DESC LIMIT 500",
  };

  // 10k rows = several kScanBatchRows batches.
  Rng rng(GetParam() + 4000);
  Database db;
  BuildRandomTable(&db, "t", 10000, 10, &rng, nullptr);

  for (const std::string& query : queries) {
    SetExecThreads(1);
    auto serial = db.Execute(query);
    ASSERT_TRUE(serial.ok()) << query << " -> " << serial.status().ToString();
    for (int threads : {2, 4, 8}) {
      SetExecThreads(threads);
      auto parallel = db.Execute(query);
      ASSERT_TRUE(parallel.ok()) << query;
      ExpectChunksBitIdentical(serial.value(), parallel.value(),
                               query + " threads " + std::to_string(threads));
    }
  }
}

// Parallel join/sort regression (ISSUE 3): all three join methods and
// both ORDER BY paths must be BIT-identical across --threads — same
// rows, same order, same double bits — including NULL-key rows (which
// never join) and keys whose match runs straddle kScanBatchRows batch
// boundaries.
TEST_P(RandomFilterTest, JoinAndOrderByBitIdenticalAcrossThreads) {
  struct ExecThreadsRestorer {
    ~ExecThreadsRestorer() { SetExecThreads(0); }
  } restore_threads;

  Rng rng(GetParam() + 5000);
  Database db;
  // Both sides span multiple kScanBatchRows (2048) batches. ~5% of
  // join keys are NULL; every tenth row shares the hot key 7, so its
  // posting list and probe hits straddle every batch boundary; every
  // eleventh row has key 0, the value NULLs share as their storage
  // placeholder.
  auto build = [&](const std::string& name, int n) {
    ASSERT_TRUE(db.Execute("CREATE TABLE " + name +
                           " (id INT, k INT, k2 INT, val DOUBLE)")
                    .ok());
    auto table = db.GetTable(name);
    ASSERT_TRUE(table.ok());
    Chunk& chunk = table.value()->mutable_chunk();
    for (int i = 0; i < n; ++i) {
      chunk.mutable_column(0).AppendInt(i);
      if (rng.Uniform(20) == 0) {
        chunk.mutable_column(1).Append(Value::Null());
      } else if (i % 10 == 0) {
        chunk.mutable_column(1).AppendInt(7);
      } else if (i % 11 == 0) {
        chunk.mutable_column(1).AppendInt(0);
      } else {
        chunk.mutable_column(1).AppendInt(static_cast<int64_t>(rng.Uniform(300)));
      }
      chunk.mutable_column(2).AppendInt(static_cast<int64_t>(rng.Uniform(3)));
      chunk.mutable_column(3).Append(Value::Double(rng.NextDouble() * 100));
    }
  };
  build("lt", 5000);
  build("rt", 4100);
  // A declared index on rt.k gives index-nested-loop a real index to
  // probe (without one it silently falls back to hash).
  ASSERT_TRUE(db.GetTable("rt").value()->DeclareIndex("k").ok());

  const std::string join_query =
      "SELECT l.id, l.k, r.id, r.val FROM lt l, rt r WHERE l.k = r.k";
  const std::string multikey_join_query =
      "SELECT l.id, r.id FROM lt l, rt r WHERE l.k = r.k AND l.k2 = r.k2";
  for (JoinMethod method :
       {JoinMethod::kHash, JoinMethod::kMerge, JoinMethod::kIndexNestedLoop}) {
    db.set_join_method(method);
    const std::string tag = "method " + std::to_string(static_cast<int>(method));
    for (const std::string& query : {join_query, multikey_join_query}) {
      SetExecThreads(1);
      auto serial = db.Execute(query);
      ASSERT_TRUE(serial.ok()) << tag << ": " << serial.status().ToString();
      ASSERT_GT(serial.value().num_rows(), kScanBatchRows)
          << tag << ": join output too small to cross batch boundaries";
      for (int threads : {2, 4}) {
        SetExecThreads(threads);
        auto parallel = db.Execute(query);
        ASSERT_TRUE(parallel.ok()) << tag;
        ExpectChunksBitIdentical(
            serial.value(), parallel.value(),
            tag + " threads " + std::to_string(threads) + " " + query);
      }
    }
  }
  // The single-key query under INL must actually have probed the
  // index, not fallen back to hash.
  db.ResetStats();
  db.set_join_method(JoinMethod::kIndexNestedLoop);
  ASSERT_TRUE(db.Execute(join_query).ok());
  EXPECT_GT(db.stats()->index_probes, 0) << "INL fell back to hash";

  // With NULL keys present alongside the genuine key 0 (whose storage
  // placeholder NULLs share), the three methods must agree with each
  // other too, not just with their own serial runs.
  std::vector<Value> first_agg;
  for (JoinMethod method :
       {JoinMethod::kHash, JoinMethod::kMerge, JoinMethod::kIndexNestedLoop}) {
    db.set_join_method(method);
    auto agg = db.Execute(
        "SELECT count(*), sum(l.id), sum(r.id) FROM lt l, rt r "
        "WHERE l.k = r.k");
    ASSERT_TRUE(agg.ok()) << agg.status().ToString();
    std::vector<Value> row = {agg.value().Get(0, 0), agg.value().Get(0, 1),
                              agg.value().Get(0, 2)};
    if (first_agg.empty()) {
      first_agg = std::move(row);
    } else {
      for (size_t c = 0; c < first_agg.size(); ++c) {
        EXPECT_TRUE(first_agg[c].Equals(row[c]))
            << "method " << static_cast<int>(method) << " column " << c;
      }
    }
  }

  db.set_join_method(JoinMethod::kHash);
  const std::vector<std::string> order_queries = {
      // Pre-projection sort (keys resolve against the scan input),
      // multi-key with DESC and NULL keys.
      "SELECT id, k, val FROM lt ORDER BY k DESC, val",
      // Post-aggregation sort (ApplyOrderByLimit) over enough groups
      // to cross batch boundaries.
      "SELECT id, sum(val) AS s FROM lt GROUP BY id ORDER BY s DESC",
      // Join feeding an ORDER BY on a computed float expression.
      "SELECT l.id, r.id, l.val + r.val AS w FROM lt l, rt r "
      "WHERE l.k = r.k AND l.k2 = 1 ORDER BY l.val + r.val DESC LIMIT 3000",
  };
  for (const std::string& query : order_queries) {
    SetExecThreads(1);
    auto serial = db.Execute(query);
    ASSERT_TRUE(serial.ok()) << query << " -> " << serial.status().ToString();
    for (int threads : {2, 4}) {
      SetExecThreads(threads);
      auto parallel = db.Execute(query);
      ASSERT_TRUE(parallel.ok()) << query;
      ExpectChunksBitIdentical(serial.value(), parallel.value(),
                               query + " threads " + std::to_string(threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFilterTest,
                         ::testing::Values(1, 7, 42, 1234, 99999));

// Regression: NULL keys are stored as the placeholder 0 in the int
// column, so the merge join's sorted order used to slot them into a
// genuine key-0 run and emit them as matches. All methods must agree
// that NULL joins nothing, even against key 0.
TEST(JoinNullKeys, NullNeverMatchesKeyZeroInAnyMethod) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE lt0 (id INT, k INT)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE rt0 (id INT, k INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO lt0 VALUES (1, 0), (2, NULL)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO rt0 VALUES (10, 0), (11, NULL)").ok());
  ASSERT_TRUE(db.GetTable("rt0").value()->DeclareIndex("k").ok());
  for (JoinMethod method :
       {JoinMethod::kHash, JoinMethod::kMerge, JoinMethod::kIndexNestedLoop}) {
    db.set_join_method(method);
    auto r = db.Execute(
        "SELECT count(*) FROM lt0 l, rt0 r WHERE l.k = r.k");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().Get(0, 0).AsInt(), 1)
        << "method " << static_cast<int>(method)
        << ": only (1, 10) joins; NULLs must not match key 0";
  }
}

// --- SQL key semantics ---------------------------------------------------
//
// GROUP BY, DISTINCT and equi-joins key rows the same way: NULL keys
// never join but form one group and one DISTINCT row; doubles compare
// by bit pattern, so 0.0 and -0.0 stay apart and bit-identical NaNs
// are one key; '' is not NULL. A naive reference checks all of it over
// INT, DOUBLE and TEXT keys spanning several kScanBatchRows batches, at
// one and four threads. Row 0 holds no NULL, so every key column's
// first group is non-NULL.

struct KeyRow {
  int64_t id;
  std::optional<int64_t> i;
  std::optional<double> d;
  std::optional<std::string> s;
};

uint64_t BitsOf(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// One key cell of the reference: NULL, or the value (doubles by bits).
using RefCell = std::optional<std::variant<int64_t, uint64_t, std::string>>;

RefCell CellOf(const KeyRow& row, char col) {
  if (col == 'i' && row.i) return RefCell(*row.i);
  if (col == 'd' && row.d) return RefCell(BitsOf(*row.d));
  if (col == 's' && row.s) return RefCell(*row.s);
  return std::nullopt;
}

RefCell CellOf(const Value& v) {
  if (v.is_null()) return std::nullopt;
  if (v.type() == DataType::kDouble) return RefCell(BitsOf(v.AsDouble()));
  if (v.type() == DataType::kString) return RefCell(v.AsString());
  return RefCell(v.AsInt());
}

std::vector<KeyRow> BuildKeyTable(Database* db, const std::string& name, int n,
                                  Rng* rng) {
  EXPECT_TRUE(db->Execute("CREATE TABLE " + name +
                          " (id INT, i INT, d DOUBLE, s TEXT)")
                  .ok());
  Chunk& chunk = db->GetTable(name).value()->mutable_chunk();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<KeyRow> rows;
  for (int r = 0; r < n; ++r) {
    KeyRow row{r, {}, {}, {}};
    const bool nulls = r > 0;
    if (!nulls || rng->Uniform(15) != 0) {
      row.i = static_cast<int64_t>(rng->Uniform(8)) - 3;
    }
    if (!nulls || rng->Uniform(15) != 0) {
      switch (rng->Uniform(40)) {
        case 0: row.d = 0.0; break;
        case 1: row.d = -0.0; break;
        case 2: row.d = nan; break;
        case 3: row.d = -nan; break;
        default: row.d = static_cast<double>(rng->Uniform(300)) * 0.5;
      }
    }
    if (!nulls || rng->Uniform(15) != 0) {
      const uint64_t k = rng->Uniform(301);
      row.s = k == 300 ? "" : "s" + std::to_string(k);
    }
    chunk.mutable_column(0).AppendInt(row.id);
    chunk.mutable_column(1).Append(row.i ? Value::Int(*row.i) : Value::Null());
    chunk.mutable_column(2).Append(row.d ? Value::Double(*row.d) : Value::Null());
    chunk.mutable_column(3).Append(row.s ? Value::String(*row.s) : Value::Null());
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(SqlKeySemantics, GroupByDistinctAndJoinsMatchReference) {
  struct ExecThreadsRestorer {
    ~ExecThreadsRestorer() { SetExecThreads(0); }
  } restore_threads;
  Rng rng(2718);
  Database db;
  const std::vector<KeyRow> kt = BuildKeyTable(&db, "kt", 5000, &rng);
  const std::vector<KeyRow> lt = BuildKeyTable(&db, "lt", 3000, &rng);
  const std::vector<KeyRow> rt = BuildKeyTable(&db, "rt", 2500, &rng);

  // Groups of `cols` in first-occurrence order: keys, count(*), sum(i).
  auto reference_groups = [&](const std::string& cols) {
    std::map<std::vector<RefCell>, size_t> index;
    std::vector<std::vector<RefCell>> out;
    std::vector<int64_t> counts;
    std::vector<std::optional<int64_t>> sums;
    for (const KeyRow& row : kt) {
      std::vector<RefCell> key;
      for (char c : cols) key.push_back(CellOf(row, c));
      auto [it, inserted] = index.try_emplace(key, out.size());
      if (inserted) {
        out.push_back(key);
        counts.push_back(0);
        sums.emplace_back();
      }
      ++counts[it->second];
      if (row.i) sums[it->second] = sums[it->second].value_or(0) + *row.i;
    }
    for (size_t g = 0; g < out.size(); ++g) {
      out[g].push_back(RefCell(counts[g]));
      out[g].push_back(sums[g] ? RefCell(*sums[g]) : RefCell());
    }
    return out;
  };
  auto engine_rows = [](const Chunk& chunk) {
    std::vector<std::vector<RefCell>> out;
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      out.emplace_back();
      for (int c = 0; c < chunk.num_columns(); ++c) {
        out.back().push_back(CellOf(chunk.Get(r, c)));
      }
    }
    return out;
  };
  auto column_list = [](const std::string& cols) {
    std::string out;
    for (char c : cols) out += (out.empty() ? "" : ", ") + std::string(1, c);
    return out;
  };
  // Pairs of ids whose keys `cols` are all non-NULL and equal.
  auto reference_join = [&](const std::string& cols) {
    std::vector<std::pair<int64_t, int64_t>> out;
    for (const KeyRow& l : lt) {
      for (const KeyRow& r : rt) {
        bool match = true;
        for (char c : cols) {
          const RefCell a = CellOf(l, c);
          match = match && a.has_value() && a == CellOf(r, c);
        }
        if (match) out.emplace_back(l.id, r.id);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  const std::vector<std::string> join_keys = {"s", "d", "is", "ds"};
  std::map<std::string, std::vector<std::pair<int64_t, int64_t>>> join_refs;
  for (const std::string& cols : join_keys) join_refs[cols] = reference_join(cols);
  for (int threads : {1, 4}) {
    SetExecThreads(threads);
    for (const std::string cols : {"i", "d", "s", "ds", "ids"}) {
      const std::string keys = column_list(cols);
      const std::vector<std::vector<RefCell>> groups = reference_groups(cols);
      const std::string group_by =
          "SELECT " + keys + ", count(*), sum(i) FROM kt GROUP BY " + keys;
      auto grouped = db.Execute(group_by);
      ASSERT_TRUE(grouped.ok()) << group_by << ": " << grouped.status().ToString();
      EXPECT_EQ(groups, engine_rows(grouped.value()))
          << group_by << " threads " << threads;

      const std::string distinct = "SELECT DISTINCT " + keys + " FROM kt";
      auto rows = db.Execute(distinct);
      ASSERT_TRUE(rows.ok()) << distinct << ": " << rows.status().ToString();
      std::vector<std::vector<RefCell>> expected = groups;
      for (auto& row : expected) row.resize(cols.size());
      EXPECT_EQ(expected, engine_rows(rows.value()))
          << distinct << " threads " << threads;
    }
    for (const std::string& cols : join_keys) {
      std::string where;
      for (char c : cols) {
        where += std::string(where.empty() ? "" : " AND ") + "l." + c + " = r." + c;
      }
      const std::string join =
          "SELECT l.id, r.id FROM lt l, rt r WHERE " + where;
      auto joined = db.Execute(join);
      ASSERT_TRUE(joined.ok()) << join << ": " << joined.status().ToString();
      std::vector<std::pair<int64_t, int64_t>> pairs;
      for (size_t r = 0; r < joined.value().num_rows(); ++r) {
        pairs.emplace_back(joined.value().Get(r, 0).AsInt(),
                           joined.value().Get(r, 1).AsInt());
      }
      std::sort(pairs.begin(), pairs.end());
      EXPECT_EQ(join_refs[cols], pairs) << join << " threads " << threads;
    }
    // Key columns of different types never match, not even 1 and 1.0.
    auto mixed = db.Execute("SELECT count(*) FROM lt l, rt r WHERE l.i = r.d");
    ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
    EXPECT_EQ(0, mixed.value().Get(0, 0).AsInt()) << "threads " << threads;
  }
}

// --- Schema evolution primitives ---------------------------------------

TEST(SchemaEvolutionPrimitives, AddColumnBackfillsNull) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1), (2)").ok());
  auto table = db.GetTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(table.value()->AddColumn("b", DataType::kDouble).ok());
  auto r = db.Execute("SELECT count(*) FROM t WHERE b = 0.0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 0);  // NULL matches nothing
  ASSERT_TRUE(db.Execute("UPDATE t SET b = 1.5 WHERE a = 1").ok());
  auto set = db.Execute("SELECT b FROM t WHERE a = 1");
  ASSERT_TRUE(set.ok());
  EXPECT_DOUBLE_EQ(set.value().Get(0, 0).AsDouble(), 1.5);
  // Duplicate add rejected.
  EXPECT_EQ(table.value()->AddColumn("b", DataType::kInt64).code(),
            StatusCode::kAlreadyExists);
}

TEST(SchemaEvolutionPrimitives, WideningLattice) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, s TEXT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (7, 'x')").ok());
  auto table = db.GetTable("t");
  ASSERT_TRUE(table.ok());
  // INT -> DOUBLE.
  ASSERT_TRUE(table.value()->AlterColumnType("a", DataType::kDouble).ok());
  auto r1 = db.Execute("SELECT a FROM t");
  ASSERT_TRUE(r1.ok());
  EXPECT_DOUBLE_EQ(r1.value().Get(0, 0).AsDouble(), 7.0);
  // DOUBLE -> TEXT.
  ASSERT_TRUE(table.value()->AlterColumnType("a", DataType::kString).ok());
  auto r2 = db.Execute("SELECT a FROM t");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().Get(0, 0).AsString(), "7");
  // Narrowing rejected.
  EXPECT_EQ(table.value()->AlterColumnType("s", DataType::kInt64).code(),
            StatusCode::kNotSupported);
}

}  // namespace
}  // namespace orpheus::rel
