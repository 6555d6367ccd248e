// Tests for query-level observability: EXPLAIN ANALYZE / profile
// operator trees (structure and rows), the acceptance bar that
// operator wall times sum to the execute stage, the `traces` verb as
// parseable JSON lines over a real TCP round-trip, the runtime
// `slowlog` verb, and the /proc/self process-stats sampler.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/engine_api.h"
#include "obs/metrics.h"
#include "obs/procstats.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/server.h"

namespace orpheus {
namespace {

using core::CvdOptions;
using core::EngineApi;
using server::Client;
using server::Server;
using server::ServerOptions;

// k INT (pk), v INT.
rel::Chunk MakeRows(int n) {
  rel::Schema schema;
  schema.AddColumn("k", rel::DataType::kInt64);
  schema.AddColumn("v", rel::DataType::kInt64);
  rel::Chunk rows(schema);
  for (int i = 0; i < n; ++i) {
    rows.mutable_column(0).AppendInt(i);
    rows.mutable_column(1).AppendInt(i * 3);
  }
  return rows;
}

std::string MustExecute(EngineApi* api, core::SessionContext* session,
                        const std::string& line) {
  auto result = api->Execute(session, line);
  EXPECT_TRUE(result.ok()) << line << ": " << result.status().ToString();
  return result.ok() ? result.value() : std::string();
}

std::string MustExecute(Client* client, const std::string& line) {
  auto result = client->Execute(line);
  EXPECT_TRUE(result.ok()) << line << ": " << result.status().ToString();
  return result.ok() ? result.value() : std::string();
}

// Minimal JSON syntax check: one object per line — balanced braces and
// brackets outside string literals, nothing after the closing brace.
bool LooksLikeJsonObject(const std::string& line) {
  if (line.empty() || line[0] != '{') return false;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
      if (depth == 0 && i + 1 != line.size()) return false;
    }
  }
  return depth == 0 && !in_string;
}

// Value of the exposition line starting "<series> " (0 when absent).
double PromValue(const std::string& text, const std::string& series) {
  std::istringstream in(text);
  std::string line;
  const std::string prefix = series + " ";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::atof(line.c_str() + prefix.size());
    }
  }
  return 0;
}

TEST(ProfileTest, ExplainAnalyzeGoldenPlan) {
  EngineApi api;
  auto session = api.NewSession();
  CvdOptions options;
  options.primary_key = {"k"};
  ASSERT_TRUE(api.orpheus()->InitCvd("gp", MakeRows(8), options, "init").ok());
  MustExecute(&api, session.get(), "checkout gp -v 1 -t gp1");

  const std::string text = MustExecute(
      &api, session.get(),
      "explain analyze SELECT count(*) FROM gp1 WHERE k < 5");
  // Operators appear in execution order under the statement root.
  size_t p_stmt = text.find("statement");
  size_t p_scan = text.find("scan [gp1]");
  size_t p_filter = text.find("filter");
  size_t p_agg = text.find("aggregate");
  EXPECT_NE(std::string::npos, p_stmt) << text;
  EXPECT_NE(std::string::npos, p_scan) << text;
  EXPECT_NE(std::string::npos, p_filter) << text;
  EXPECT_NE(std::string::npos, p_agg) << text;
  EXPECT_LT(p_stmt, p_scan);
  EXPECT_LT(p_scan, p_filter);
  EXPECT_LT(p_filter, p_agg);
  // Row counts are real, not estimates: 8 scanned, 5 pass k < 5,
  // one aggregate row out.
  EXPECT_NE(std::string::npos, text.find("rows_out=8")) << text;
  EXPECT_NE(std::string::npos,
            text.find("filter  rows_in=8 rows_out=5"))
      << text;
  EXPECT_NE(std::string::npos, text.find("1 row(s)")) << text;

  // JSON form parses and carries the same shape.
  const std::string json = MustExecute(
      &api, session.get(), "profile -json SELECT count(*) FROM gp1");
  EXPECT_TRUE(LooksLikeJsonObject(json)) << json;
  EXPECT_NE(std::string::npos, json.find("\"op\":\"aggregate\"")) << json;
  EXPECT_NE(std::string::npos, json.find("\"rows\":1")) << json;
}

TEST(ProfileTest, ExplainAnalyzeArgumentErrors) {
  EngineApi api;
  auto session = api.NewSession();
  // Plain EXPLAIN (no ANALYZE) is not supported — no plan-only mode.
  EXPECT_FALSE(api.Execute(session.get(), "explain SELECT 1").ok());
  EXPECT_FALSE(api.Execute(session.get(), "explain analyze").ok());
  EXPECT_FALSE(api.Execute(session.get(), "profile").ok());
  EXPECT_FALSE(api.Execute(session.get(), "profile -json").ok());
}

// The acceptance bar: for a 3-table join, the top-level operator wall
// times sum to the statement's execute stage within 10%, at 1 and 4
// exec threads. Both sides come from the same steady clock on the
// statement's own thread, so the gap is genuine non-operator work.
TEST(ProfileTest, OperatorTimesSumToExecuteStage) {
  EngineApi api;
  auto session = api.NewSession();
  CvdOptions options;
  options.primary_key = {"k"};
  ASSERT_TRUE(
      api.orpheus()->InitCvd("js", MakeRows(40000), options, "init").ok());
  MustExecute(&api, session.get(), "checkout js -v 1 -t j1");
  MustExecute(&api, session.get(), "checkout js -v 1 -t j2");
  MustExecute(&api, session.get(), "checkout js -v 1 -t j3");

  // One preemption between two operator scopes can open a gap on a
  // loaded host, so the bound applies to the median of five runs.
  const int prev_threads = ExecThreads();
  for (int threads : {1, 4}) {
    SetExecThreads(threads);
    std::vector<double> gaps;  // |operator_sum - execute| / execute
    for (int run = 0; run < 5; ++run) {
      MustExecute(&api, session.get(),
                  "run SELECT count(*) FROM j1, j2, j3 "
                  "WHERE j1.k = j2.k AND j2.k = j3.k");
      std::vector<obs::OpTrace> recent = obs::GlobalTraceLog().Recent();
      ASSERT_FALSE(recent.empty());
      const obs::OpTrace& op = recent.back();
      ASSERT_EQ("run", op.verb);
      ASSERT_NE(nullptr, op.profile) << "statement recorded no profile";
      double operator_sum = 0;
      for (const auto& child : op.profile->children) {
        operator_sum += child->seconds;
      }
      double execute = op.stage_s[static_cast<int>(obs::TraceStage::kExecute)];
      ASSERT_GT(execute, 0.0);
      gaps.push_back(std::fabs(operator_sum - execute) / execute);
    }
    std::sort(gaps.begin(), gaps.end());
    EXPECT_LE(gaps[2], 0.10) << "threads=" << threads << " median gap";
  }
  SetExecThreads(prev_threads);
}

TEST(ProfileTest, TracesVerbOverTcpParsesAsJsonLines) {
  const double prev_threshold = obs::GlobalTraceLog().SlowOpThresholdMs();
  EngineApi api;
  CvdOptions options;
  options.primary_key = {"k"};
  ASSERT_TRUE(api.orpheus()->InitCvd("tr", MakeRows(16), options, "init").ok());

  Server server(&api, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Threshold 0: every op lands in the slow log with its profile.
  MustExecute(&client, "slowlog 0");
  MustExecute(&client, "run SELECT count(*) FROM VERSION 1 OF CVD tr");

  const std::string reply = MustExecute(&client, "traces slow 10");
  std::istringstream in(reply);
  std::string line;
  int lines = 0;
  bool saw_meta = false;
  bool saw_profiled_slow_op = false;
  while (std::getline(in, line)) {
    ASSERT_TRUE(LooksLikeJsonObject(line)) << line;
    ++lines;
    if (line.find("\"meta\":true") != std::string::npos) {
      saw_meta = true;
      EXPECT_NE(std::string::npos, line.find("\"slow_op_threshold_ms\":0"));
      EXPECT_NE(std::string::npos, line.find("\"total_recorded\":"));
    }
    if (line.find("\"kind\":\"slow\"") != std::string::npos &&
        line.find("\"verb\":\"run\"") != std::string::npos) {
      EXPECT_NE(std::string::npos, line.find("\"profile\":{")) << line;
      EXPECT_NE(std::string::npos, line.find("\"op\":\"scan\"")) << line;
      EXPECT_NE(std::string::npos, line.find("\"stages\":{")) << line;
      saw_profiled_slow_op = true;
    }
  }
  EXPECT_GE(lines, 2);
  EXPECT_TRUE(saw_meta) << reply;
  EXPECT_TRUE(saw_profiled_slow_op) << reply;

  // The recent ring stays compact: entries never embed the profile.
  const std::string recent = MustExecute(&client, "traces recent 10");
  EXPECT_NE(std::string::npos, recent.find("\"kind\":\"recent\""));
  EXPECT_EQ(std::string::npos, recent.find("\"profile\":{"));

  EXPECT_FALSE(client.Execute("traces bogus").ok());
  server.Stop();
  obs::GlobalTraceLog().SetSlowOpThresholdMs(prev_threshold);
}

TEST(ProfileTest, SlowlogVerbSetsAndShowsThreshold) {
  const double prev_threshold = obs::GlobalTraceLog().SlowOpThresholdMs();
  EngineApi api;
  auto session = api.NewSession();
  EXPECT_NE(std::string::npos,
            MustExecute(&api, session.get(), "slowlog 7.5").find("7.5"));
  EXPECT_EQ(7.5, obs::GlobalTraceLog().SlowOpThresholdMs());
  EXPECT_NE(std::string::npos,
            MustExecute(&api, session.get(), "slowlog").find("7.5"));
  EXPECT_FALSE(api.Execute(session.get(), "slowlog -3").ok());
  EXPECT_FALSE(api.Execute(session.get(), "slowlog fast").ok());
  obs::GlobalTraceLog().SetSlowOpThresholdMs(prev_threshold);
}

TEST(ProcStatsTest, SampleReflectsAllocationAndFdChurn) {
  auto before = obs::ReadProcSelf();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_GT(before.value().rss_bytes, 0);
  EXPECT_GT(before.value().vm_bytes, 0);
  EXPECT_GT(before.value().open_fds, 0);
  EXPECT_GE(before.value().threads, 1);
  EXPECT_GT(before.value().uptime_s, 0.0);

  // Touch ~48 MB so it is resident, and open 20 extra fds.
  constexpr size_t kBytes = 48u << 20;
  std::vector<char> hog(kBytes);
  for (size_t i = 0; i < kBytes; i += 4096) hog[i] = 1;
  std::vector<int> fds;
  for (int i = 0; i < 20; ++i) {
    int fd = ::open("/proc/self/statm", O_RDONLY);
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
  }

  auto after = obs::ReadProcSelf();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GE(after.value().rss_bytes - before.value().rss_bytes,
            static_cast<int64_t>(kBytes) / 2)
      << "allocation not visible in RSS";
  EXPECT_GE(after.value().open_fds - before.value().open_fds, 20);
  for (int fd : fds) ::close(fd);

  // SampleOnce publishes the gauges into the global registry.
  ASSERT_TRUE(obs::ProcStatsSampler::Instance().SampleOnce().ok());
  const std::string text = obs::GlobalMetrics().RenderPrometheus();
  EXPECT_GT(PromValue(text, "orpheus_process_resident_bytes"), 0.0);
  EXPECT_GT(PromValue(text, "orpheus_process_virtual_bytes"), 0.0);
  EXPECT_GT(PromValue(text, "orpheus_process_open_fds"), 0.0);
  EXPECT_GE(PromValue(text, "orpheus_process_threads"), 1.0);
  EXPECT_GT(PromValue(text, "orpheus_process_uptime_seconds"), 0.0);
}

TEST(ProcStatsTest, SamplerStartStop) {
  obs::ProcStatsSampler& sampler = obs::ProcStatsSampler::Instance();
  sampler.Start(10);
  ::usleep(50 * 1000);
  sampler.Stop();
  const std::string text = obs::GlobalMetrics().RenderPrometheus();
  EXPECT_GT(PromValue(text, "orpheus_process_resident_bytes"), 0.0);
  // Stop is idempotent; a second Start/Stop cycle works.
  sampler.Stop();
  sampler.Start(1000);
  sampler.Stop();
}

}  // namespace
}  // namespace orpheus
