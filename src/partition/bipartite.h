// Version-record bipartite graph and partitioning cost model (§4.1).
//
// G = (V, R, E): an edge (vi, rj) means version vi contains record rj.
// A partitioning assigns every version to exactly one partition; each
// partition stores the union of its versions' records (records may be
// duplicated across partitions). Costs follow Equations 4.1 and 4.2:
//
//   S     = sum_k |Rk|                 (storage cost, in records)
//   Cavg  = sum_k |Vk| * |Rk| / n     (average checkout cost)

#ifndef ORPHEUS_PARTITION_BIPARTITE_H_
#define ORPHEUS_PARTITION_BIPARTITE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/status.h"
#include "core/version_graph.h"

namespace orpheus::part {

using core::RecordId;
using core::VersionId;

class BipartiteGraph {
 public:
  BipartiteGraph() = default;

  // Takes per-version record lists (need not be sorted; stored sorted).
  static BipartiteGraph FromVersionSets(
      std::vector<VersionId> versions,
      std::vector<std::vector<RecordId>> version_records);

  size_t num_versions() const { return versions_.size(); }
  int64_t num_records() const { return num_records_; }  // |R| distinct
  int64_t num_edges() const { return num_edges_; }      // |E|

  const std::vector<VersionId>& versions() const { return versions_; }
  Result<const std::vector<RecordId>*> RecordsOf(VersionId vid) const;

  // Minimum possible checkout cost |E| / |V| (Observation 1).
  double MinCheckoutCost() const;

 private:
  std::vector<VersionId> versions_;
  std::vector<std::vector<RecordId>> version_records_;  // sorted
  std::map<VersionId, size_t> index_of_;
  int64_t num_records_ = 0;
  int64_t num_edges_ = 0;
};

struct Partitioning {
  // groups[k] = versions assigned to partition k.
  std::vector<std::vector<VersionId>> groups;

  // Filled by ComputeCosts:
  std::vector<int64_t> partition_records;  // |Rk|
  int64_t storage_cost = 0;                // S
  double avg_checkout_cost = 0.0;          // Cavg

  size_t num_partitions() const { return groups.size(); }

  // Computes |Rk| as true unions over the bipartite graph and fills
  // the cost fields. Fails if a version is missing or assigned twice.
  Status ComputeCosts(const BipartiteGraph& graph);

  // Union of the record lists of `vids` (sorted).
  static Result<std::vector<RecordId>> UnionRecords(
      const BipartiteGraph& graph, const std::vector<VersionId>& vids);
};

}  // namespace orpheus::part

#endif  // ORPHEUS_PARTITION_BIPARTITE_H_
