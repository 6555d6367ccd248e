// Metrics of a pass: the end-to-end figures of an untraced pass, and
// the per-layer breakdown of a traced one (spans matched with the
// engine's op traces, self time per layer, probe timings, counters).

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "harness.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

// The timed phase is cut into kBlocks equal slices of time. A run's
// percentile is the median over the slices of each slice's percentile,
// and ops_per_s likewise, so a stall of the host that lasts a few
// seconds moves one slice, not the run's figure. xquery, with few long
// samples, takes the plain median.
constexpr int kBlocks = 5;

struct Sample {
  double end = 0;
  double ms = 0;
};

// A pass's successful measured samples of one op kind.
std::vector<Sample> Samples(const Pass& pass, int kind);

std::vector<double> Values(const std::vector<Sample>& v);

// Samples grouped by the time slice they completed in.
std::vector<std::vector<double>> Blocks(const Pass& pass, const std::vector<Sample>& v);

// Timed ops completed per second (median over the slices).
double OpsPerSecond(const Pass& pass);

// Counts a seed must reproduce exactly on a single-client workload.
std::string PassCounts(const Pass& pass, const Setup& setup);

// The end-to-end metrics of an untraced pass.
Metrics EndToEnd(const Pass& pass, const Setup& setup, double setup_s);

// Per-op-kind sums of span self times, keyed by span name.
struct LayerSums {
  std::map<std::string, double> self_s[kOpKinds];
  double client_s[kOpKinds] = {0, 0, 0, 0};
  int64_t n[kOpKinds] = {0, 0, 0, 0};
  std::map<std::string, double> operator_self_s;  // all ops
};

// Matches each session's statements with the engine's traces (same
// order per session), lays out spans, and sums self times per layer.
Status Attribute(const Pass& pass, LayerSums* sums, std::vector<Span>* spans);

// The per-layer metrics of a traced pass.
Metrics PerLayer(const Pass& pass, const Setup& setup, const LayerSums& sums,
                 double trace_overhead);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
