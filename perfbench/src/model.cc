#include "model.h"

#include <algorithm>
#include <utility>

namespace perfbench {

using orpheus::wl::Dataset;

int64_t A1(const Rec& r) { return Dataset::AttrValue(r.rid, 1) + r.bump; }
int64_t A2(const Rec& r) { return Dataset::AttrValue(r.rid, 2); }

Summary Summarize(const Content& c) {
  Summary s;
  s.rows = static_cast<int64_t>(c.size());
  for (const Rec& r : c) {
    s.sum_a1 += A1(r);
    if (A2(r) > 0) ++s.a2_positive;
  }
  return s;
}

int64_t ChangedA1(const Content& a, const Content& b) {
  int64_t n = 0;
  size_t j = 0;
  for (const Rec& r : a) {
    while (j < b.size() && b[j].key < r.key) ++j;
    if (j < b.size() && b[j].key == r.key && A1(b[j]) != A1(r)) ++n;
  }
  return n;
}

Content Merge(const Content& first, const Content& second) {
  Content out;
  out.reserve(first.size() + second.size());
  size_t i = 0;
  size_t j = 0;
  while (i < first.size() || j < second.size()) {
    if (j == second.size() || (i < first.size() && first[i].key <= second[j].key)) {
      if (j < second.size() && second[j].key == first[i].key) ++j;
      out.push_back(first[i++]);
    } else {
      out.push_back(second[j++]);
    }
  }
  return out;
}

int64_t Bump(Content* c, int64_t key_limit) {
  int64_t n = 0;
  for (Rec& r : *c) {
    if (r.key >= key_limit) break;  // sorted by key
    ++r.bump;
    ++n;
  }
  return n;
}

int64_t NewRecords(const Content& c, const std::vector<const Content*>& parents) {
  int64_t n = 0;
  for (const Rec& r : c) {
    bool found = false;
    for (const Content* p : parents) {
      auto it = std::lower_bound(p->begin(), p->end(), r.key,
                                 [](const Rec& x, int64_t k) { return x.key < k; });
      if (it != p->end() && it->key == r.key && it->rid == r.rid &&
          it->bump == r.bump) {
        found = true;
        break;
      }
    }
    if (!found) ++n;
  }
  return n;
}

CvdModel::CvdModel(std::string name, const Dataset* data)
    : name_(std::move(name)), data_(data) {
  orpheus::rel::Chunk all = data->AllRecordRows();  // rid, k, a1, ...
  rid_key_ = all.column(1).ints();
  // Records edited away inside the version that created them never
  // reach the engine; count only those some version holds.
  std::vector<bool> seen(rid_key_.size());
  for (const orpheus::wl::VersionSpec& v : data->versions()) {
    for (int64_t rid : v.rids) seen[static_cast<size_t>(rid)] = true;
  }
  distinct_ = std::count(seen.begin(), seen.end(), true);
}

Content CvdModel::DatasetContent(VersionId vid) const {
  const orpheus::wl::VersionSpec& v = data_->versions()[static_cast<size_t>(vid - 1)];
  Content c;
  c.reserve(v.rids.size());
  for (int64_t rid : v.rids) c.push_back({rid_key_[static_cast<size_t>(rid)], rid, 0});
  std::sort(c.begin(), c.end(), [](const Rec& a, const Rec& b) { return a.key < b.key; });
  return c;
}

void CvdModel::NoteLoaded() {
  for (const orpheus::wl::VersionSpec& v : data_->versions()) {
    Content c = DatasetContent(v.vid);
    summary_[v.vid] = Summarize(c);
    parent_[v.vid] = v.parents.empty() ? -1 : v.parents[0];
    vquery_[v.vid] =
        v.parents.empty() ? -1 : ChangedA1(c, DatasetContent(v.parents[0]));
  }
}

void CvdModel::NoteCommitted(VersionId vid, const Content& content,
                             VersionId first_parent,
                             const std::vector<const Content*>& parents) {
  summary_[vid] = Summarize(content);
  parent_[vid] = first_parent;
  vquery_[vid] = ChangedA1(content, *parents[0]);
  distinct_ += NewRecords(content, parents);
}

}  // namespace perfbench
