// The benchmark's own model of what each CVD version holds, computed
// from wl::Dataset and from the edits the benchmark itself commits —
// never read back from the engine. Every checkout, vquery and xquery
// result is compared against it.

#ifndef PERFBENCH_MODEL_H_
#define PERFBENCH_MODEL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload/generator.h"

namespace perfbench {

using orpheus::core::VersionId;

// One logical record: its key, the dataset record its attributes come
// from, and how many times the benchmark's UPDATE added 1 to a1.
struct Rec {
  int64_t key = 0;
  int64_t rid = 0;
  int64_t bump = 0;
};
using Content = std::vector<Rec>;  // sorted by key, keys unique

// The aggregates a checkout count check and an xquery group compare.
struct Summary {
  int64_t rows = 0;
  int64_t sum_a1 = 0;
  int64_t a2_positive = 0;  // rows with a2 > 0
};

int64_t A1(const Rec& r);
int64_t A2(const Rec& r);
Summary Summarize(const Content& c);
// Keys present in both with different a1: the vquery's expected count.
int64_t ChangedA1(const Content& a, const Content& b);
// Merging checkout in precedence order: all of `first`, then the
// records of `second` whose key `first` lacks.
Content Merge(const Content& first, const Content& second);
// The benchmark's UPDATE: a1 = a1 + 1 for keys below `key_limit`.
// Returns how many rows it touched.
int64_t Bump(Content* c, int64_t key_limit);
// Rows of `c` not identical to any record of the given parents — the
// records a commit must create, since commit matches only parents.
int64_t NewRecords(const Content& c, const std::vector<const Content*>& parents);

// Expected state of one CVD as the benchmark drives it.
class CvdModel {
 public:
  CvdModel(std::string name, const orpheus::wl::Dataset* data);

  const std::string& name() const { return name_; }
  const orpheus::wl::Dataset& data() const { return *data_; }

  // Content of a version loaded from the dataset.
  Content DatasetContent(VersionId vid) const;

  // Records every dataset version as loaded (summaries + vquery
  // answers).
  void NoteLoaded();

  // Records a committed version from its content and its parents'
  // (first parent first).
  void NoteCommitted(VersionId vid, const Content& content,
                     VersionId first_parent,
                     const std::vector<const Content*>& parents);

  const Summary& summary(VersionId vid) const { return summary_.at(vid); }
  // Changed-a1 count of `vid` against its first parent (-1 if none).
  int64_t vquery_answer(VersionId vid) const { return vquery_.at(vid); }
  VersionId first_parent(VersionId vid) const { return parent_.at(vid); }
  const std::map<VersionId, Summary>& summaries() const { return summary_; }
  VersionId latest() const { return summary_.empty() ? 0 : summary_.rbegin()->first; }

  int64_t key_of(int64_t rid) const { return rid_key_[static_cast<size_t>(rid)]; }

  // Distinct records the engine must hold for this CVD.
  int64_t distinct_records() const { return distinct_; }

 private:
  std::string name_;
  const orpheus::wl::Dataset* data_;
  std::vector<int64_t> rid_key_;  // dataset rid -> key
  std::map<VersionId, Summary> summary_;
  std::map<VersionId, int64_t> vquery_;
  std::map<VersionId, VersionId> parent_;
  int64_t distinct_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_H_
