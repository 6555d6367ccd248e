// Arithmetic the benchmark reports with: percentiles over latency
// samples and self time over a tree of spans. Both are checked by
// SelfTest(), which run.py executes before every measurement.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Percentile q in [0, 100] by linear interpolation between closest
// ranks (numpy's default). Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);

// How many samples lie strictly above the q-th percentile: the
// benchmark states this next to every percentile it reports.
size_t SamplesBeyond(const std::vector<double>& samples, double q);

// One traced interval. `parent` indexes the same vector (-1 = root);
// spans of one operation share `op_id`.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  uint64_t op_id = 0;
};

// Self time of every span: its duration minus the part of it covered
// by the union of its children's intervals (clipped to the span).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

// Checks Percentile, SamplesBeyond and SelfTimes on synthetic inputs
// with known answers. On failure returns false and sets `why`.
bool SelfTest(std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
