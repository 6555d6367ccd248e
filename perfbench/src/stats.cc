#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = q / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

size_t SamplesBeyond(const std::vector<double>& samples, double q) {
  const double p = Percentile(samples, q);
  return static_cast<size_t>(std::count_if(
      samples.begin(), samples.end(), [p](double s) { return s > p; }));
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) kids[static_cast<size_t>(s.parent)].push_back({s.start, s.end});
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>>& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double cur_lo = 0;
    double cur_hi = -1;  // empty run
    auto flush = [&] {
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    };
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start);
      hi = std::min(hi, s.end);
      if (hi <= lo) continue;
      if (cur_hi < cur_lo || lo > cur_hi) {
        flush();
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    flush();
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

namespace {

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

}  // namespace

bool SelfTest(std::string* why) {
  auto fail = [why](const std::string& what) {
    *why = what;
    return false;
  };
  // Percentiles: 1..100 in scrambled order.
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(static_cast<double>((i * 37) % 100 + 1));
  if (!Near(Percentile(v, 50), 50.5)) return fail("p50 of 1..100 != 50.5");
  if (!Near(Percentile(v, 90), 90.1)) return fail("p90 of 1..100 != 90.1");
  if (!Near(Percentile(v, 0), 1) || !Near(Percentile(v, 100), 100)) {
    return fail("p0/p100 of 1..100 are not the extremes");
  }
  if (SamplesBeyond(v, 90) != 10) return fail("1..100 has 10 samples beyond p90");
  if (SamplesBeyond(v, 50) != 50) return fail("1..100 has 50 samples beyond p50");
  if (!Near(Percentile({7}, 90), 7) || Percentile({}, 50) != 0) {
    return fail("degenerate samples");
  }
  // Self time. Root [0,10] has children [1,4] and [3,6] (overlapping,
  // union 5) and [9,12] (clipped to 1); child [1,4] has a grandchild
  // [2,3]; an unrelated root [20,21] has no children.
  std::vector<Span> spans = {
      {"root", 0, 10, -1, 1}, {"a", 1, 4, 0, 1},  {"b", 3, 6, 0, 1},
      {"c", 9, 12, 0, 1},     {"a.x", 2, 3, 1, 1}, {"solo", 20, 21, -1, 2},
  };
  std::vector<double> self = SelfTimes(spans);
  const double want[] = {4, 2, 3, 3, 1, 1};
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!Near(self[i], want[i])) {
      return fail("self time of span '" + spans[i].name + "' is " +
                  std::to_string(self[i]) + ", want " + std::to_string(want[i]));
    }
  }
  return true;
}

}  // namespace perfbench
