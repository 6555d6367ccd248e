// EngineApi dispatch tests: every verb's lock mode, metric label and
// help entry, plus the strict numeric-argument contract.
//
// The lock mode is observed from outside: each statement must move
// exactly one of the orpheus_lock_wait_seconds{mode=shared|exclusive}
// counts by one (or neither, for the lock-free verbs), and its op must
// be counted under orpheus_ops_total{verb=<the verb>}.

#include <cctype>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/engine_api.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/io_util.h"

namespace orpheus {
namespace {

using core::CvdOptions;
using core::EngineApi;

enum class Lock { kNone, kShared, kExclusive };

struct Case {
  std::string line;
  std::string verb;
  Lock lock;
};

// Sum of a metric series' value (counters) or count (histograms).
double Series(const std::string& flat_name) {
  for (const obs::MetricPoint& p : obs::GlobalMetrics().Snapshot()) {
    if (p.FlatName() != flat_name) continue;
    return p.type == obs::MetricType::kHistogram ? static_cast<double>(p.count)
                                                 : p.value;
  }
  return 0;
}

double OpsTotal() {
  double total = 0;
  for (const obs::MetricPoint& p : obs::GlobalMetrics().Snapshot()) {
    if (p.name == "orpheus_ops_total") total += p.value;
  }
  return total;
}

double SharedWaits() {
  return Series("orpheus_lock_wait_seconds{mode=shared}");
}
double ExclusiveWaits() {
  return Series("orpheus_lock_wait_seconds{mode=exclusive}");
}

// True if `word` occurs in `text` delimited by non-identifier chars.
bool HasWord(const std::string& text, const std::string& word) {
  auto ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  for (size_t pos = text.find(word); pos != std::string::npos;
       pos = text.find(word, pos + 1)) {
    bool left = pos == 0 || !ident(text[pos - 1]);
    size_t end = pos + word.size();
    bool right = end == text.size() || !ident(text[end]);
    if (left && right) return true;
  }
  return false;
}

class TempDir {
 public:
  TempDir() : path_(storage::MakeTempDir("orpheus_api_").ValueOrDie()) {}
  ~TempDir() { (void)storage::RemoveDirRecursive(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

rel::Chunk MakeRows(int n) {
  rel::Schema schema;
  schema.AddColumn("k", rel::DataType::kInt64);
  schema.AddColumn("score", rel::DataType::kDouble);
  rel::Chunk rows(schema);
  for (int i = 0; i < n; ++i) {
    rows.mutable_column(0).AppendInt(i);
    rows.mutable_column(1).AppendDouble(0.5 * i);
  }
  return rows;
}

// Every verb the engine accepts, in an order where each statement is
// valid, with the lock mode it must run under.
std::vector<Case> AllVerbs(const std::string& dir) {
  return {
      {"open " + dir + "/db", "open", Lock::kExclusive},
      {"init c -f " + dir + "/c.csv -pk k", "init", Lock::kExclusive},
      {"help", "help", Lock::kNone},
      {"metrics", "metrics", Lock::kNone},
      {"stats", "stats", Lock::kNone},
      {"traces recent 1", "traces", Lock::kNone},
      {"slowlog", "slowlog", Lock::kNone},
      {"whoami", "whoami", Lock::kNone},
      {"ls", "ls", Lock::kShared},
      {"graph c", "graph", Lock::kShared},
      {"pin c -v 1", "pin", Lock::kShared},
      {"pins", "pins", Lock::kNone},
      {"unpin c", "unpin", Lock::kNone},
      {"init d -f " + dir + "/d.csv -pk k", "init", Lock::kExclusive},
      {"checkout c -v 1 -t w", "checkout", Lock::kExclusive},
      {"sql UPDATE w SET score = 9 WHERE k = 1", "sql", Lock::kExclusive},
      {"sql SELECT k FROM w", "sql", Lock::kShared},
      {"run SELECT k FROM VERSION 1 OF CVD c", "run", Lock::kShared},
      {"run SELECT k INTO w2 FROM VERSION 1 OF CVD c", "run",
       Lock::kExclusive},
      {"commit -t w -m x", "commit", Lock::kExclusive},
      {"diff c 1 2", "diff", Lock::kShared},
      {"explain analyze SELECT k FROM VERSION 2 OF CVD c", "explain",
       Lock::kShared},
      {"explain analyze DELETE FROM w2 WHERE k = 0", "explain",
       Lock::kExclusive},
      {"profile SELECT k FROM w2", "profile", Lock::kShared},
      {"profile -json SELECT k FROM VERSION 2 OF CVD c", "profile",
       Lock::kShared},
      {"profile -json UPDATE w2 SET k = 7 WHERE k = 1", "profile",
       Lock::kExclusive},
      {"checkout c -v 2 -t w3", "checkout", Lock::kExclusive},
      {"discard -t w3", "discard", Lock::kExclusive},
      {"optimize c", "optimize", Lock::kExclusive},
      {"threads", "threads", Lock::kExclusive},
      {"create_user alice", "create_user", Lock::kExclusive},
      {"config alice", "config", Lock::kExclusive},
      {"save " + dir + "/export", "save", Lock::kExclusive},
      {"checkpoint", "checkpoint", Lock::kExclusive},
      {"drop d", "drop", Lock::kExclusive},
      {"exit", "exit", Lock::kNone},
      {"quit", "quit", Lock::kNone},
  };
}

TEST(EngineApiDispatch, EveryVerbRunsUnderItsLockModeAndLabel) {
  TempDir dir;
  std::ofstream(dir.path() + "/c.csv") << "k,score\n0,0\n1,0.5\n2,1\n";
  std::ofstream(dir.path() + "/d.csv") << "k,a\n1,10\n2,20\n";
  EngineApi api;
  auto main_session = api.NewSession();
  for (const Case& c : AllVerbs(dir.path())) {
    SCOPED_TRACE(c.line);
    // exit/quit end their session, so they get a fresh one.
    auto session = c.lock == Lock::kNone && (c.verb == "exit" || c.verb == "quit")
                       ? api.NewSession()
                       : main_session;
    const double shared0 = SharedWaits();
    const double exclusive0 = ExclusiveWaits();
    const double ops0 = OpsTotal();
    const std::string label = "orpheus_ops_total{verb=" + c.verb + "}";
    const double verb0 = Series(label);

    auto result = api.Execute(session.get(), c.line);
    EXPECT_TRUE(result.ok()) << result.status().ToString();

    EXPECT_EQ(c.lock == Lock::kShared ? 1.0 : 0.0, SharedWaits() - shared0);
    EXPECT_EQ(c.lock == Lock::kExclusive ? 1.0 : 0.0,
              ExclusiveWaits() - exclusive0);
    EXPECT_EQ(1.0, Series(label) - verb0);
    EXPECT_EQ(1.0, OpsTotal() - ops0);
  }
}

TEST(EngineApiDispatch, HelpListsEveryVerb) {
  EngineApi api;
  auto session = api.NewSession();
  auto help = api.Execute(session.get(), "help");
  ASSERT_TRUE(help.ok());
  for (const Case& c : AllVerbs("dir")) {
    if (c.verb == "quit") continue;  // exit's alias, documented with it
    EXPECT_TRUE(HasWord(help.value(), c.verb)) << c.verb;
  }
}

TEST(EngineApiDispatch, UnknownInputIsLabelledUnknown) {
  EngineApi api;
  // `script` is a front-end word (orpheus script <file>); the engine
  // itself does not accept it.
  for (const std::string line : {"frobnicate", "script x.txt", "LS"}) {
    SCOPED_TRACE(line);
    auto session = api.NewSession();
    const double unknown0 = Series("orpheus_ops_total{verb=unknown}");
    auto result = api.Execute(session.get(), line);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(1.0, Series("orpheus_ops_total{verb=unknown}") - unknown0);
  }
}

TEST(EngineApiArgs, NumericArgumentsAreStrict) {
  EngineApi api;
  CvdOptions options;
  options.primary_key = {"k"};
  ASSERT_TRUE(api.orpheus()->InitCvd("c", MakeRows(4), options, "init").ok());
  auto session = api.NewSession();
  ASSERT_TRUE(api.Execute(session.get(), "slowlog 100").ok());

  for (const char* line : {
           "slowlog nan", "slowlog inf", "slowlog 1e300", "slowlog -1",
           "slowlog abc", "slowlog 5ms",
           "optimize c -gamma inf", "optimize c -gamma nan",
           "optimize c -gamma abc", "optimize c -gamma -1",
           "optimize c -gamma 1e300",
           "threads -1", "threads 1.5", "threads 2x",
           "threads 99999999999999999999",
           "traces -1", "traces 5x", "traces slow 1e3",
           "checkout c -v abc -t w", "checkout c -v 1x -t w",
           "checkout c -v 1,2.5 -t w",
           "pin c -v 1.5", "pin c -v x",
           "diff c 1 x", "diff c 1e2 1", "diff c 1 -2",
           "diff c 1 1 2", "diff c 1 1 x"}) {
    SCOPED_TRACE(line);
    auto result = api.Execute(session.get(), line);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(StatusCode::kInvalidArgument, result.status().code())
        << result.status().ToString();
  }
  // A rejected `slowlog` left the threshold where it was.
  EXPECT_EQ(100.0, obs::GlobalTraceLog().SlowOpThresholdMs());
  // Well-formed values still work.
  EXPECT_TRUE(api.Execute(session.get(), "slowlog 0.5").ok());
  EXPECT_EQ(0.5, obs::GlobalTraceLog().SlowOpThresholdMs());
  EXPECT_TRUE(api.Execute(session.get(), "pin c -v 1").ok());
  EXPECT_TRUE(api.Execute(session.get(), "diff c 1 1").ok());
  EXPECT_TRUE(api.Execute(session.get(), "optimize c -gamma 2.5").ok());
}

TEST(EngineApiArgs, CheckoutRefusesStrayTokens) {
  EngineApi api;
  CvdOptions options;
  options.primary_key = {"k"};
  ASSERT_TRUE(api.orpheus()->InitCvd("c", MakeRows(4), options, "init").ok());
  auto session = api.NewSession();
  // `-v 1 3` is not the merge `-v 1,3`: refused, nothing staged.
  for (const char* line : {"checkout c -v 1 3 -t m", "checkout c 1 -v 1 -t m",
                           "checkout c -v 1 -t m extra", "checkout c -v 1 -x y -t m",
                           "checkout c -v 1 -t"}) {
    SCOPED_TRACE(line);
    auto result = api.Execute(session.get(), line);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(StatusCode::kInvalidArgument, result.status().code())
        << result.status().ToString();
    EXPECT_FALSE(api.orpheus()->db()->HasTable("m"));
  }
  EXPECT_TRUE(api.Execute(session.get(), "checkout c -t m -v 1").ok());
  EXPECT_TRUE(api.orpheus()->db()->HasTable("m"));
}

// Every verb but the by-SQL ones takes exactly the tokens its usage
// line names. A refused statement changes nothing.
TEST(EngineApiArgs, StrayTokensAreRefused) {
  TempDir dir;
  EngineApi api;
  CvdOptions options;
  options.primary_key = {"k"};
  ASSERT_TRUE(api.orpheus()->InitCvd("c", MakeRows(4), options, "init").ok());
  auto session = api.NewSession();
  ASSERT_TRUE(api.Execute(session.get(), "checkout c -v 1 -t w").ok());
  ASSERT_TRUE(api.Execute(session.get(), "slowlog 100").ok());
  const int threads = ExecThreads();
  const std::string db_dir = dir.path() + "/db";
  for (const std::string& line : std::vector<std::string>{
        "graph c junk", "graph", "drop c junk", "drop", "pin c junk",
        "pin c -v 1 junk", "pin c -v", "unpin c junk", "open " + db_dir + " junk",
        "save " + dir.path() + "/export junk", "create_user bob junk",
        "config default junk", "threads 2 junk", "slowlog 5 junk",
        "traces recent 1 junk", "diff c 1 1 junk", "optimize c junk",
        "optimize c -gamma", "init e -f x.csv junk", "discard w",
        "discard -t w junk", "commit -t w -m x junk", "commit -t w -m",
        "ls junk", "pins junk", "checkpoint junk", "metrics junk",
        "stats junk", "whoami junk", "help junk", "exit junk", "quit junk"}) {
    SCOPED_TRACE(line);
    auto result = api.Execute(session.get(), line);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(StatusCode::kInvalidArgument, result.status().code())
        << result.status().ToString();
  }
  // Nothing moved: the CVD, its staged table, the (absent) pin, the
  // settings, the user, the session and the directories.
  EXPECT_TRUE(api.orpheus()->GetCvd("c").ok());
  EXPECT_EQ(1, api.orpheus()->GetCvd("c").ValueOrDie()->latest_version());
  EXPECT_TRUE(api.orpheus()->db()->HasTable("w"));
  EXPECT_TRUE(api.registry()->PinsOf(session->id()).empty());
  EXPECT_EQ(threads, ExecThreads());
  EXPECT_EQ(100.0, obs::GlobalTraceLog().SlowOpThresholdMs());
  EXPECT_FALSE(api.orpheus()->durable());
  EXPECT_FALSE(storage::FileExists(dir.path() + "/export"));
  EXPECT_EQ("default", session->user());
  EXPECT_FALSE(session->exited());
  EXPECT_EQ(std::vector<std::string>{"c"}, api.orpheus()->ListCvds());
  EXPECT_FALSE(api.Execute(session.get(), "config bob").ok());  // no user bob
}

// A double-quoted operand is one token with its quotes stripped, so a
// commit message may hold spaces; the message survives WAL replay.
TEST(EngineApiArgs, QuotedCommitMessageIsOneToken) {
  TempDir dir;
  std::ofstream(dir.path() + "/c.csv") << "k,score\n0,0\n1,0.5\n";
  const std::string db_dir = dir.path() + "/db";
  auto messages = [](EngineApi* api) {
    auto r = api->orpheus()->db()->Execute("SELECT msg FROM c_meta ORDER BY vid");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<std::string> out;
    for (size_t i = 0; r.ok() && i < r.value().num_rows(); ++i) {
      out.push_back(r.value().Get(i, 0).AsString());
    }
    return out;
  };
  std::vector<std::string> live;
  {
    EngineApi api;
    auto session = api.NewSession();
    for (const std::string& line : std::vector<std::string>{
             "open " + db_dir, "init c -f " + dir.path() + "/c.csv -pk k",
             "checkout c -v 1 -t w", "commit -t w -m \"two  words\"",
             "checkout c -v 2 -t w", "commit -t w -m \"one\""}) {
      SCOPED_TRACE(line);
      auto result = api.Execute(session.get(), line);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
    ASSERT_TRUE(api.Execute(session.get(), "checkout c -v 3 -t w").ok());
    // Still one message operand: a stray token after the quotes is
    // refused, as is an unquoted second word.
    for (const char* line : {"commit -t w -m \"a b\" junk",
                             "commit -t w -m a b"}) {
      SCOPED_TRACE(line);
      EXPECT_EQ(StatusCode::kInvalidArgument,
                api.Execute(session.get(), line).status().code());
    }
    live = messages(&api);
    ASSERT_EQ(3u, live.size());
    EXPECT_EQ("two  words", live[1]);
    EXPECT_EQ("one", live[2]);
  }
  EngineApi reopened;
  auto session = reopened.NewSession();
  ASSERT_TRUE(reopened.Execute(session.get(), "open " + db_dir).ok());
  EXPECT_EQ(live, messages(&reopened));
}

}  // namespace
}  // namespace orpheus
