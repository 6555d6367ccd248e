// Unit tests for relstore's type system, Value semantics, Column
// storage, Chunk operations, and Schema resolution.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "relstore/chunk.h"
#include "relstore/column.h"
#include "relstore/schema.h"
#include "relstore/table.h"
#include "relstore/types.h"
#include "relstore/value.h"

namespace orpheus::rel {
namespace {

TEST(TypesTest, NamesRoundTrip) {
  EXPECT_EQ(DataTypeFromName("INT"), DataType::kInt64);
  EXPECT_EQ(DataTypeFromName("integer"), DataType::kInt64);
  EXPECT_EQ(DataTypeFromName("decimal"), DataType::kDouble);
  EXPECT_EQ(DataTypeFromName("TEXT"), DataType::kString);
  EXPECT_EQ(DataTypeFromName("int[]"), DataType::kIntArray);
  EXPECT_EQ(DataTypeFromName("whatever"), DataType::kNull);
  EXPECT_STREQ(DataTypeName(DataType::kIntArray), "INT[]");
}

TEST(ValueTest, NullSemantics) {
  Value null = Value::Null();
  EXPECT_TRUE(null.is_null());
  // NULL equals nothing, including NULL (SQL semantics).
  EXPECT_FALSE(null.Equals(Value::Null()));
  EXPECT_FALSE(null.Equals(Value::Int(0)));
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_TRUE(Value::Int(3).Equals(Value::Double(3.0)));
  EXPECT_FALSE(Value::Int(3).Equals(Value::Double(3.5)));
  EXPECT_TRUE(Value::Double(2.0).Equals(Value::Int(2)));
}

TEST(ValueTest, CompareTotalOrder) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(2.0)), 0);
  EXPECT_GT(Value::String("b").Compare(Value::String("a")), 0);
  // NULL sorts first.
  EXPECT_LT(Value::Null().Compare(Value::Int(-100)), 0);
}

TEST(ValueTest, ArrayEqualityAndOrder) {
  Value a = Value::Array({1, 2, 3});
  Value b = Value::Array({1, 2, 3});
  Value c = Value::Array({1, 2});
  EXPECT_TRUE(a.Equals(b));
  EXPECT_FALSE(a.Equals(c));
  EXPECT_GT(a.Compare(c), 0);  // longer with equal prefix sorts after
  EXPECT_EQ(a.ToString(), "{1,2,3}");
}

TEST(ColumnTest, AppendAndGet) {
  Column col(DataType::kInt64);
  col.AppendInt(10);
  col.Append(Value::Int(20));
  ASSERT_EQ(col.size(), 2u);
  EXPECT_EQ(col.Get(0).AsInt(), 10);
  EXPECT_EQ(col.Get(1).AsInt(), 20);
}

TEST(ColumnTest, NullBitmapOnlyWhenNeeded) {
  Column col(DataType::kInt64);
  col.AppendInt(1);
  EXPECT_FALSE(col.IsNull(0));
  col.Append(Value::Null());
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.Get(1).is_null());
}

TEST(ColumnTest, FastAppendsAfterNullKeepBitmapInStep) {
  // Regression: once a NULL forced the bitmap into existence, the
  // unboxed appenders must extend it too, or IsNull on later rows
  // reads past the bitmap's end.
  Column col(DataType::kInt64);
  col.AppendInt(1);
  col.Append(Value::Null());
  col.AppendInt(3);
  col.AppendInt(4);
  ASSERT_EQ(col.size(), 4u);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_FALSE(col.IsNull(2));
  EXPECT_FALSE(col.IsNull(3));

  Column arr(DataType::kIntArray);
  arr.Append(Value::Null());
  arr.AppendArray({1, 2});
  ASSERT_EQ(arr.size(), 2u);
  EXPECT_TRUE(arr.IsNull(0));
  EXPECT_FALSE(arr.IsNull(1));
}

TEST(ColumnTest, GatherPreservesNulls) {
  Column src(DataType::kString);
  src.Append(Value::String("a"));
  src.Append(Value::Null());
  src.Append(Value::String("c"));
  Column dst(DataType::kString);
  dst.Gather(src, {2, 1});
  ASSERT_EQ(dst.size(), 2u);
  EXPECT_EQ(dst.Get(0).AsString(), "c");
  EXPECT_TRUE(dst.Get(1).is_null());
}

// Appending to a column grows it geometrically: 100K one-row gathers
// move the payload O(log n) times (log2(100K) ~ 17), not once per
// append, so a k-row append costs amortized O(k) at any column size.
TEST(ColumnTest, GatherAppendsReallocateLogarithmically) {
  Column int_src(DataType::kInt64);
  int_src.AppendInt(7);
  Column str_src(DataType::kString);
  str_src.AppendString("seven");
  Column ints(DataType::kInt64);
  Column strings(DataType::kString);
  const int64_t* int_data = nullptr;
  const std::string* str_data = nullptr;
  int int_moves = 0;
  int str_moves = 0;
  for (int i = 0; i < 100000; ++i) {
    ints.Gather(int_src, {0});
    strings.Gather(str_src, {0});
    if (ints.ints().data() != int_data) {
      int_data = ints.ints().data();
      ++int_moves;
    }
    if (strings.strings().data() != str_data) {
      str_data = strings.strings().data();
      ++str_moves;
    }
  }
  ASSERT_EQ(100000u, ints.size());
  ASSERT_EQ(100000u, strings.size());
  EXPECT_EQ(7, ints.ints().back());
  EXPECT_EQ("seven", strings.strings().back());
  EXPECT_LE(int_moves, 20);
  EXPECT_LE(str_moves, 20);
}

TEST(ColumnTest, FilterKeepsOrder) {
  Column col(DataType::kInt64);
  for (int i = 0; i < 6; ++i) col.AppendInt(i);
  col.Filter({true, false, true, false, true, false});
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.Get(0).AsInt(), 0);
  EXPECT_EQ(col.Get(1).AsInt(), 2);
  EXPECT_EQ(col.Get(2).AsInt(), 4);
}

TEST(ColumnTest, SetOverwritesAndClearsNull) {
  Column col(DataType::kDouble);
  col.Append(Value::Null());
  EXPECT_TRUE(col.IsNull(0));
  col.Set(0, Value::Double(1.5));
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_DOUBLE_EQ(col.Get(0).AsDouble(), 1.5);
}

TEST(ColumnTest, ArrayStorage) {
  Column col(DataType::kIntArray);
  col.AppendArray({1, 2});
  col.AppendArray({});
  ASSERT_EQ(col.size(), 2u);
  EXPECT_EQ(col.Get(0).AsArray().size(), 2u);
  EXPECT_TRUE(col.Get(1).AsArray().empty());
  EXPECT_GT(col.ByteSize(), 0);
}

TEST(SchemaTest, ResolveExactAndSuffix) {
  Schema schema({{"d.rid", DataType::kInt64}, {"tmp.rid_tmp", DataType::kInt64}});
  auto exact = schema.Resolve("d.rid");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.value(), 0);
  auto suffix = schema.Resolve("rid_tmp");
  ASSERT_TRUE(suffix.ok());
  EXPECT_EQ(suffix.value(), 1);
  // "rid" matches d.rid only (rid_tmp is not a suffix match for rid).
  auto rid = schema.Resolve("rid");
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(rid.value(), 0);
}

TEST(SchemaTest, ResolveAmbiguous) {
  Schema schema({{"a.x", DataType::kInt64}, {"b.x", DataType::kInt64}});
  auto r = schema.Resolve("x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, QualifyAndUnqualify) {
  Schema schema({{"rid", DataType::kInt64}, {"vlist", DataType::kIntArray}});
  Schema q = schema.Qualified("t");
  EXPECT_EQ(q.column(0).name, "t.rid");
  Schema back = q.Unqualified();
  EXPECT_TRUE(back.Equals(schema));
}

TEST(ChunkTest, AppendAndGather) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kString}});
  Chunk chunk(schema);
  chunk.AppendRow({Value::Int(1), Value::String("x")});
  chunk.AppendRow({Value::Int(2), Value::String("y")});
  chunk.AppendRow({Value::Int(3), Value::String("z")});
  EXPECT_EQ(chunk.num_rows(), 3u);

  Chunk picked(schema);
  picked.GatherFrom(chunk, {2, 0});
  ASSERT_EQ(picked.num_rows(), 2u);
  EXPECT_EQ(picked.Get(0, 1).AsString(), "z");
  EXPECT_EQ(picked.Get(1, 0).AsInt(), 1);
}

TEST(ChunkTest, FilterRows) {
  Schema schema({{"a", DataType::kInt64}});
  Chunk chunk(schema);
  for (int i = 0; i < 4; ++i) chunk.AppendRow({Value::Int(i)});
  chunk.FilterRows({false, true, true, false});
  ASSERT_EQ(chunk.num_rows(), 2u);
  EXPECT_EQ(chunk.Get(0, 0).AsInt(), 1);
}

TEST(ChunkTest, ToStringTruncates) {
  Schema schema({{"a", DataType::kInt64}});
  Chunk chunk(schema);
  for (int i = 0; i < 30; ++i) chunk.AppendRow({Value::Int(i)});
  std::string rendered = chunk.ToString(5);
  EXPECT_NE(rendered.find("more rows"), std::string::npos);
}

// --- Table indexes -------------------------------------------------------

// Checks the index on `column` against a scan of the table's current
// rows: every non-NULL value's chain lists exactly its rows in
// ascending order, NULL rows (stored as the placeholder 0) appear in no
// chain, and a value absent from the column has an empty chain.
void ExpectIndexMatchesRows(Table* table, const std::string& column) {
  auto index = table->Index(column);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const Column& data = table->data().column(table->schema().FindColumn(column));
  std::map<int64_t, std::vector<uint32_t>> expect;
  for (size_t row = 0; row < data.size(); ++row) {
    if (!data.IsNull(row)) {
      expect[data.ints()[row]].push_back(static_cast<uint32_t>(row));
    }
  }
  EXPECT_EQ(index.value()->num_keys(), expect.size()) << column;
  expect.try_emplace(0);     // the NULL placeholder, a key only if genuine
  expect.try_emplace(-999);  // never stored
  for (const auto& [key, rows] : expect) {
    std::vector<uint32_t> chain;
    for (uint32_t row = index.value()->Find(key); row != FlatJoinTable::kEnd;
         row = index.value()->Next(row)) {
      chain.push_back(row);
    }
    EXPECT_EQ(chain, rows) << column << " key " << key;
  }
}

TEST(TableIndexTest, ReflectsCurrentRowsAfterEveryModification) {
  Table table("t", Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}),
              {});
  ASSERT_TRUE(table.DeclareIndex("k").ok());
  for (const Value& k : {Value::Int(3), Value::Null(), Value::Int(3),
                         Value::Int(1), Value::Int(0), Value::Null(),
                         Value::Int(3)}) {
    ASSERT_TRUE(table.AppendRow({k, Value::Int(7)}).ok());
  }
  ExpectIndexMatchesRows(&table, "k");
  auto index = table.Index("k");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index.value()->num_keys(), 3u);  // 3, 1, 0; no NULLs

  ASSERT_TRUE(table.AppendRow({Value::Int(1), Value::Int(8)}).ok());
  ExpectIndexMatchesRows(&table, "k");

  table.mutable_chunk().mutable_column(0).Set(0, Value::Int(5));
  table.mutable_chunk().mutable_column(0).Set(2, Value::Null());
  ExpectIndexMatchesRows(&table, "k");

  ASSERT_TRUE(table.AddColumn("w", DataType::kInt64).ok());
  ASSERT_TRUE(table.DeclareIndex("w").ok());
  ExpectIndexMatchesRows(&table, "k");
  ExpectIndexMatchesRows(&table, "w");  // all NULL: no keys at all

  ASSERT_TRUE(table.ClusterBy("k").ok());
  ExpectIndexMatchesRows(&table, "k");
  ExpectIndexMatchesRows(&table, "w");
}

TEST(TableIndexTest, UndeclaredColumnIsNotFound) {
  Table table("t", Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}),
              {});
  ASSERT_TRUE(table.AppendRow({Value::Int(1), Value::Int(2)}).ok());
  ASSERT_TRUE(table.DeclareIndex("k").ok());
  EXPECT_EQ(table.Index("v").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(table.Index("nope").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(table.Index("k").ok());
}

}  // namespace
}  // namespace orpheus::rel
