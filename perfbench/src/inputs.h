// The inputs of a run, picked from --seed: the datasets' generator
// specs, and the seeds of each session's op choices.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "model.h"
#include "workload/generator.h"

namespace perfbench {

// Dataset shapes (Maddox et al.'s generator, Table 2 proportions:
// B = |V|/10), 20 int attributes; SCI is a tree, CUR a DAG with merges.
//
// The generator's tree shape moves the work of a workload by up to 2x
// between seeds. So a seed picks the first generator seed, counting up
// from its own, whose dataset lands within 4% of the shape's medians on
// every size its ops depend on: |E| (version-record pairs, behind
// whole-CVD queries) for both; for SCI the median and the p90 version
// size (reads sample versions uniformly, so these set the p50 and p90
// of checkout and vquery) and LyreSplit's Cavg (reads go through
// partitions); for CUR the mean branch-head size and the mean size of
// merging two neighbouring heads (what the writer checks out). Seeds
// vary the tree, not the size of the work.
inline constexpr int kShapeStats = 5;

struct Shape {
  orpheus::wl::WorkloadKind kind;
  int versions;
  int branches;
  int inserts;
  // Medians over 200 generator seeds (perfbench --calibrate) of |E|,
  // the median version size, the sampled size, Cavg and the merged size;
  // 0 where a stat does not apply to the kind.
  double medians[kShapeStats];
};
inline constexpr Shape kSci = {orpheus::wl::WorkloadKind::kSci, 240, 24, 100, {435650, 1859.5, 2494.5, 2716.6, 0}};
inline constexpr Shape kCur = {orpheus::wl::WorkloadKind::kCur, 120, 12, 100, {214462, 0, 2673.6, 0, 3934.2}};

// Seeds of the reader's and the writer's op choices.
uint64_t ReaderSeed(uint64_t seed);
uint64_t WriterSeed(uint64_t seed);

// Versions no other version derives from: the branch heads, in the
// order a writer visits them (a shuffle seeded by the writer's seed).
std::vector<VersionId> HeadOrder(const orpheus::wl::Dataset& d, uint64_t writer_seed);

// The generator spec whose dataset a seed runs on (see Shape).
orpheus::Result<orpheus::wl::DatasetSpec> PickSpec(const Shape& shape, uint64_t seed);

// Prints the medians the Shape constants hold (perfbench --calibrate).
void Calibrate();

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
