// Tests for the CSV helpers and the command processor (the `orpheus`
// client's brain): the full checkout/commit/diff/optimize flow driven
// through command lines, as a user would.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "cli/command_processor.h"
#include "common/csv.h"

namespace orpheus::cli {
namespace {

TEST(CsvTest, ParseWithTypeInference) {
  auto r = ParseCsv("k,name,score\n1,alpha,1.5\n2,beta,2.5\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const rel::Chunk& chunk = r.value();
  EXPECT_EQ(chunk.num_rows(), 2u);
  EXPECT_EQ(chunk.schema().column(0).type, rel::DataType::kInt64);
  EXPECT_EQ(chunk.schema().column(1).type, rel::DataType::kString);
  EXPECT_EQ(chunk.schema().column(2).type, rel::DataType::kDouble);
  EXPECT_EQ(chunk.Get(1, 1).AsString(), "beta");
}

TEST(CsvTest, QuotedFieldsAndEscapes) {
  auto r = ParseCsv("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Get(0, 0).AsString(), "x,y");
  EXPECT_EQ(r.value().Get(0, 1).AsString(), "he said \"hi\"");
}

TEST(CsvTest, EmptyFieldsAreNull) {
  auto r = ParseCsv("a,b\n1,\n,2\n");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().Get(0, 1).is_null());
  EXPECT_TRUE(r.value().Get(1, 0).is_null());
}

TEST(CsvTest, ErrorsOnRaggedRows) {
  EXPECT_FALSE(ParseCsv("a,b\n1\n").ok());
  EXPECT_FALSE(ParseCsv("").ok());
}

TEST(CsvTest, RoundTrip) {
  auto r = ParseCsv("a,b\n1,x\n2,\"y,z\"\n");
  ASSERT_TRUE(r.ok());
  std::string csv = ToCsv(r.value());
  auto back = ParseCsv(csv);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().Get(1, 1).AsString(), "y,z");
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Write a small protein csv to a temp path.
    csv_path_ = testing::TempDir() + "/orpheus_cli_test.csv";
    std::ofstream out(csv_path_);
    out << "protein1,protein2,score\n";
    out << "P1,P2,10\n";
    out << "P1,P3,20\n";
    out << "P2,P3,30\n";
  }

  void TearDown() override { std::remove(csv_path_.c_str()); }

  std::string Must(const std::string& command) {
    auto r = processor_.Execute(command);
    EXPECT_TRUE(r.ok()) << command << " -> " << r.status().ToString();
    return r.ok() ? r.value() : "";
  }

  CommandProcessor processor_;
  std::string csv_path_;
};

TEST_F(CliTest, HelpAndUsers) {
  EXPECT_NE(Must("help").find("checkout"), std::string::npos);
  EXPECT_EQ(Must("whoami"), "default");
  Must("create_user alice");
  Must("config alice");
  EXPECT_EQ(Must("whoami"), "alice");
  EXPECT_FALSE(processor_.Execute("config nobody").ok());
}

TEST_F(CliTest, ThreadsCommandShowsAndSetsParallelism) {
  EXPECT_EQ(Must("threads 3"), "exec threads: 3");
  EXPECT_EQ(Must("threads"), "exec threads: 3");
  EXPECT_EQ(Must("threads 1"), "exec threads: 1");
  EXPECT_FALSE(processor_.Execute("threads -2").ok());
  EXPECT_FALSE(processor_.Execute("threads many").ok());
  Must("threads 0");  // restore the hardware default
}

TEST_F(CliTest, FullVersioningFlow) {
  Must("init protein -f " + csv_path_ + " -pk protein1,protein2");
  EXPECT_NE(Must("ls").find("protein"), std::string::npos);

  Must("checkout protein -v 1 -t work");
  Must("sql UPDATE work SET score = 99 WHERE protein2 = 'P3'");
  EXPECT_NE(Must("commit -t work -m updated_scores").find("version 2"),
            std::string::npos);

  // The two versions differ in two records.
  std::string diff = Must("diff protein 1 2");
  EXPECT_NE(diff.find("only in v1 (2)"), std::string::npos);
  EXPECT_NE(diff.find("only in v2 (2)"), std::string::npos);

  // Versioned SQL across both versions.
  std::string counts =
      Must("run SELECT vid, count(*) AS cnt FROM CVD protein GROUP BY vid");
  EXPECT_NE(counts.find("cnt"), std::string::npos);

  std::string graph = Must("graph protein");
  EXPECT_NE(graph.find("v1 -> v2"), std::string::npos);
}

TEST_F(CliTest, CsvCheckoutCommitFlow) {
  Must("init protein -f " + csv_path_ + " -pk protein1,protein2");
  std::string work_csv = testing::TempDir() + "/orpheus_work.csv";
  Must("checkout protein -v 1 -f " + work_csv);

  // Edit the csv externally: bump one score.
  {
    std::ifstream in(work_csv);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    size_t pos = content.find("30");
    ASSERT_NE(pos, std::string::npos);
    content.replace(pos, 2, "77");
    std::ofstream out(work_csv);
    out << content;
  }
  EXPECT_NE(Must("commit -f " + work_csv + " -m csv_edit").find("version 2"),
            std::string::npos);
  std::string result = Must("run SELECT score FROM VERSION 2 OF CVD protein "
                            "AS v WHERE v.protein2 = 'P3' AND v.protein1 = 'P2'");
  EXPECT_NE(result.find("77"), std::string::npos);
  std::remove(work_csv.c_str());
}

TEST_F(CliTest, OptimizePartitionsAndCheckoutStillWorks) {
  Must("init protein -f " + csv_path_ + " -pk protein1,protein2");
  // Create a few versions so the partitioner has a graph to work with.
  for (int i = 0; i < 4; ++i) {
    Must("checkout protein -v " + std::to_string(i + 1) + " -t w" +
         std::to_string(i));
    Must("sql INSERT INTO w" + std::to_string(i) + " VALUES (0, 'N" +
         std::to_string(i) + "', 'M', 5)");
    Must("commit -t w" + std::to_string(i) + " -m grow");
  }
  std::string optimized = Must("optimize protein -gamma 2.0");
  EXPECT_NE(optimized.find("partitions"), std::string::npos);

  // Checkout routes through the partition store now.
  Must("checkout protein -v 3 -t after_opt");
  std::string count = Must("sql SELECT count(*) FROM after_opt");
  EXPECT_NE(count.find("5"), std::string::npos);  // 3 + 2 inserts

  // Versioned SQL routes to partition tables for specific versions.
  std::string q = Must("run SELECT count(*) FROM VERSION 5 OF CVD protein");
  EXPECT_NE(q.find("7"), std::string::npos);

  // A version committed after `optimize` is in no partition; checkout
  // and versioned SQL read it from the CVD's own tables.
  Must("sql INSERT INTO after_opt VALUES (0, 'N9', 'M', 5)");
  EXPECT_NE(Must("commit -t after_opt -m post").find("version 6"),
            std::string::npos);
  Must("checkout protein -v 6 -t v6");
  EXPECT_NE(Must("sql SELECT count(*) FROM v6").find("6"), std::string::npos);
  q = Must("run SELECT protein1 FROM VERSION 6 OF CVD protein "
           "WHERE protein2 = 'M'");
  EXPECT_NE(q.find("N9"), std::string::npos);
  EXPECT_NE(q.find("N1"), std::string::npos);  // a v3 row v6 keeps
  EXPECT_EQ(q.find("N2"), std::string::npos);  // v4's row is not in v6
}

TEST_F(CliTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(processor_.Execute("checkout nope -v 1 -t t").ok());
  EXPECT_FALSE(processor_.Execute("frobnicate").ok());
  EXPECT_FALSE(processor_.Execute("init x").ok());
  EXPECT_FALSE(processor_.Execute("commit -t unknown -m x").ok());
}

TEST_F(CliTest, ExitSetsFlag) {
  Must("exit");
  EXPECT_TRUE(processor_.exited());
}

TEST_F(CliTest, DiscardDropsStagedTable) {
  Must("init protein -f " + csv_path_ + " -pk protein1,protein2");
  Must("checkout protein -v 1 -t w");
  EXPECT_EQ(Must("discard -t w"), "discarded staged table w");
  // The table is gone: committing it now is a clean error.
  EXPECT_FALSE(processor_.Execute("commit -t w -m x").ok());
  EXPECT_FALSE(processor_.Execute("discard -t w").ok());
}

TEST_F(CliTest, PinUnpinAndPinsVerbs) {
  Must("init protein -f " + csv_path_ + " -pk protein1,protein2");
  EXPECT_EQ(Must("pins"), "(no pins)");
  EXPECT_NE(Must("pin protein").find("pinned protein at version 1"),
            std::string::npos);
  EXPECT_NE(Must("pins").find("protein v1"), std::string::npos);
  EXPECT_EQ(Must("unpin protein"), "unpinned protein");
  EXPECT_EQ(Must("pins"), "(no pins)");
  EXPECT_FALSE(processor_.Execute("unpin protein").ok());
  EXPECT_FALSE(processor_.Execute("pin protein -v 42").ok());
  // The CLI's own session may drop what only it has pinned.
  Must("pin protein");
  EXPECT_EQ(Must("drop protein"), "dropped protein");
}

}  // namespace
}  // namespace orpheus::cli
