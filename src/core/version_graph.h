// VersionGraph: the DAG of version derivations (§3.3 of the paper).
//
// Nodes are versions; an edge vi -> vj means vj was derived from vi and
// carries weight w(vi, vj) = number of records the two versions share.
// The graph also tracks |R(vi)| (records per version) and topological
// levels l(vi). LYRESPLIT operates on this structure instead of the
// much larger version-record bipartite graph — that is the source of
// its ~10^3x speedup over AGGLO/KMEANS.
//
// For DAGs (merges), ToTree() implements Appendix C.1: keep only the
// max-weight incoming edge of each merge node, conceptually duplicating
// the records inherited through dropped edges (the |R^| surplus).

#ifndef ORPHEUS_CORE_VERSION_GRAPH_H_
#define ORPHEUS_CORE_VERSION_GRAPH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace orpheus::core {

using VersionId = int64_t;
using RecordId = int64_t;  // a record id (rid), unique within a CVD

struct VersionNode {
  VersionId vid = 0;
  std::vector<VersionId> parents;
  // w(parent, this), aligned with `parents`.
  std::vector<int64_t> parent_weights;
  std::vector<VersionId> children;
  int64_t num_records = 0;  // |R(vid)|
  int level = 0;            // l(vid); roots have level 1
};

class VersionGraph {
 public:
  VersionGraph() = default;

  // Adds a version with its parents and shared-record counts.
  // Parents must already exist. Weight i is w(parents[i], vid).
  Status AddVersion(VersionId vid, const std::vector<VersionId>& parents,
                    const std::vector<int64_t>& parent_weights,
                    int64_t num_records);

  bool Contains(VersionId vid) const { return nodes_.count(vid) > 0; }
  Result<const VersionNode*> GetNode(VersionId vid) const;

  size_t num_versions() const { return nodes_.size(); }

  // All version ids in insertion (= topological) order.
  const std::vector<VersionId>& versions() const { return order_; }

  // Versions with no parents.
  std::vector<VersionId> Roots() const;

  // All transitive ancestors (excluding vid itself), breadth-first.
  Result<std::vector<VersionId>> Ancestors(VersionId vid) const;
  // All transitive descendants (excluding vid itself), breadth-first.
  Result<std::vector<VersionId>> Descendants(VersionId vid) const;

  // True if the graph has any merge node (>1 parent).
  bool IsTree() const;

  // Appendix C.1: converts a DAG to a tree by keeping, for each merge
  // node, only the max-weight incoming edge. `duplicated_records`
  // (|R^|) receives the total weight of dropped edges — the records
  // conceptually re-created in the tree view.
  VersionGraph ToTree(int64_t* duplicated_records) const;

  // Sum over versions of |R(vi)| minus inherited records — equals |R|
  // for trees (per Lemma 1's telescoping argument).
  int64_t TotalNewRecords() const;

  // Number of bipartite edges |E| = sum of |R(vi)|.
  int64_t TotalBipartiteEdges() const;

  std::string ToDot() const;  // Graphviz rendering for the CLI/examples

 private:
  std::map<VersionId, VersionNode> nodes_;
  std::vector<VersionId> order_;
};

}  // namespace orpheus::core

#endif  // ORPHEUS_CORE_VERSION_GRAPH_H_
