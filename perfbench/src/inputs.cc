#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <utility>

#include "common/rng.h"
#include "partition/lyresplit.h"
#include "stats.h"

namespace perfbench {

namespace wl = orpheus::wl;
using orpheus::Result;
using orpheus::Status;

namespace {

constexpr double kShapeBand = 0.04;

double VersionSize(const wl::Dataset& d, VersionId v) {
  return static_cast<double>(d.versions()[static_cast<size_t>(v - 1)].rids.size());
}

double Edges(const wl::Dataset& d, uint64_t) { return static_cast<double>(d.num_edges()); }

// SCI: the median version size.
double MedianSize(const wl::Dataset& d, uint64_t) {
  std::vector<double> sizes;
  for (const wl::VersionSpec& v : d.versions()) sizes.push_back(VersionSize(d, v.vid));
  std::nth_element(sizes.begin(), sizes.begin() + sizes.size() / 2, sizes.end());
  return sizes[sizes.size() / 2];
}

// SCI: the p90 version size (reads sample versions uniformly). CUR: the
// mean head size (the writer visits every head in turn).
double SampledSize(const wl::Dataset& d, uint64_t seed) {
  std::vector<double> sizes;
  if (d.spec().kind == wl::WorkloadKind::kSci) {
    for (const wl::VersionSpec& v : d.versions()) sizes.push_back(VersionSize(d, v.vid));
    std::sort(sizes.begin(), sizes.end());
    return sizes[sizes.size() * 9 / 10];
  }
  for (VersionId h : HeadOrder(d, WriterSeed(seed))) sizes.push_back(VersionSize(d, h));
  double sum = 0;
  for (double x : sizes) sum += x;
  return sum / static_cast<double>(sizes.size());
}

// SCI: LyreSplit's Cavg at optimize's default budget (reads go through
// the partitions).
double Cavg(const wl::Dataset& d, uint64_t) {
  auto split = orpheus::part::LyreSplit::RunForBudget(d.BuildGraph(), 2 * d.num_records());
  return split.ok() ? split.value().estimated_checkout : 0;
}

// CUR: the mean size of merging neighbours in the writer's visiting
// order (merge n merges heads n and n + 1).
double MergedSize(const wl::Dataset& d, uint64_t seed) {
  const std::vector<VersionId> heads = HeadOrder(d, WriterSeed(seed));
  std::vector<std::vector<int64_t>> keys;
  for (VersionId h : heads) {
    keys.push_back(d.RowsFor(d.versions()[static_cast<size_t>(h - 1)].rids).column(0).ints());
    std::sort(keys.back().begin(), keys.back().end());
  }
  double sum = 0;
  for (size_t m = 0; m < heads.size(); ++m) {
    const std::vector<int64_t>& a = keys[m];
    const std::vector<int64_t>& b = keys[(m + 1) % heads.size()];
    std::vector<int64_t> both;
    std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(both));
    sum += static_cast<double>(both.size());
  }
  return sum / static_cast<double>(heads.size());
}

// In the order of Shape::medians, cheapest first.
using Stat = double (*)(const wl::Dataset&, uint64_t);
constexpr Stat kStats[kShapeStats] = {Edges, MedianSize, SampledSize, Cavg, MergedSize};
constexpr const char* kStatNames[kShapeStats] = {"edges", "median", "sampled", "cavg",
                                                 "merged"};

wl::DatasetSpec BaseSpec(const Shape& shape) {
  wl::DatasetSpec spec;
  spec.kind = shape.kind;
  spec.num_versions = shape.versions;
  spec.num_branches = shape.branches;
  spec.inserts_per_version = shape.inserts;
  spec.num_attrs = 20;
  return spec;
}

}  // namespace

uint64_t ReaderSeed(uint64_t seed) { return seed * 7919 + 1; }
uint64_t WriterSeed(uint64_t seed) { return seed * 7919 + 2; }

std::vector<VersionId> HeadOrder(const wl::Dataset& d, uint64_t writer_seed) {
  std::vector<bool> has_child(d.versions().size() + 1);
  for (const wl::VersionSpec& v : d.versions()) {
    for (VersionId p : v.parents) has_child[static_cast<size_t>(p)] = true;
  }
  std::vector<VersionId> heads;
  for (const wl::VersionSpec& v : d.versions()) {
    if (!has_child[static_cast<size_t>(v.vid)]) heads.push_back(v.vid);
  }
  orpheus::Rng rng(writer_seed);
  for (size_t i = heads.size(); i > 1; --i) std::swap(heads[i - 1], heads[rng.Uniform(i)]);
  return heads;
}

Result<wl::DatasetSpec> PickSpec(const Shape& shape, uint64_t seed) {
  wl::DatasetSpec spec = BaseSpec(shape);
  auto near = [](double v, double median) { return std::fabs(v / median - 1) <= kShapeBand; };
  for (int i = 0; i < 5000; ++i) {
    spec.seed = seed * 7919 + static_cast<uint64_t>(i);
    const wl::Dataset d = wl::Generate(spec);
    bool all = true;
    for (int k = 0; k < kShapeStats && all; ++k) {
      all = shape.medians[k] == 0 || near(kStats[k](d, seed), shape.medians[k]);
    }
    if (all) return spec;
  }
  return Status::Internal("no generator seed near the shape's median sizes");
}

void Calibrate() {
  for (const Shape* shape : {&kSci, &kCur}) {
    wl::DatasetSpec spec = BaseSpec(*shape);
    std::vector<double> values[kShapeStats];
    for (uint64_t i = 1; i <= 200; ++i) {
      spec.seed = 1000003 * i;
      const wl::Dataset d = wl::Generate(spec);
      for (int k = 0; k < kShapeStats; ++k) {
        if (shape->medians[k] != 0) values[k].push_back(kStats[k](d, i));
      }
    }
    std::printf("%s medians:", spec.Name().c_str());
    for (int k = 0; k < kShapeStats; ++k) {
      std::printf(" %s %.1f", kStatNames[k], values[k].empty() ? 0.0 : Percentile(values[k], 50));
    }
    std::printf("\n");
  }
}

}  // namespace perfbench
