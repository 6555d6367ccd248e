#include "core/record.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string_view>

namespace orpheus::core {

namespace {

constexpr uint64_t kKeySeed = 0x243F6A8885A308D3ull;
constexpr uint64_t kNullTag = 0x6E756C6C6E756C6Cull;

// Folds one 64-bit word into a running row key.
inline uint64_t Mix(uint64_t h, uint64_t v) {
  v *= 0xBF58476D1CE4E5B9ull;
  v ^= v >> 31;
  h = (h ^ v) * 0x94D049BB133111EBull;
  return h ^ (h >> 29);
}

inline uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

inline uint64_t BytesHash(const void* data, size_t len) {
  return std::hash<std::string_view>()(
      std::string_view(static_cast<const char*>(data), len));
}

inline bool DoublesMatch(double p, double q) {
  return p == q && std::signbit(p) == std::signbit(q);
}

// Clears equal[r] where column `c` of hit r ({part, row within the
// part}) differs from row r of `y` under RecordsMatch's rules. Values
// is the columns' typed vector; `same` compares two non-NULL values.
template <typename T, const std::vector<T>& (rel::Column::*Values)() const,
          typename Same>
void VerifyColumn(const std::vector<RecordColumns>& parts, size_t c,
                  const rel::Column& y, const Same& same,
                  const std::vector<std::pair<size_t, size_t>>& hits,
                  std::vector<uint8_t>* equal) {
  bool nulls = y.has_null_bitmap();
  for (const RecordColumns& part : parts) {
    nulls = nulls || part[c]->has_null_bitmap();
  }
  const T* v = (y.*Values)().data();
  uint8_t* eq = equal->data();
  for (size_t r = 0; r < hits.size(); ++r) {
    if (!eq[r]) continue;
    const auto [part, i] = hits[r];
    const rel::Column& x = *parts[part][c];
    if (nulls && (x.IsNull(i) || y.IsNull(r))) {
      eq[r] = x.IsNull(i) && y.IsNull(r);
    } else {
      eq[r] = same((x.*Values)()[i], v[r]);
    }
  }
}

// Mixes word(r) into keys[r] for each of n rows; NULL rows mix the tag.
template <typename WordFn>
void MixColumn(const rel::Column& col, size_t n, uint64_t* keys,
               const WordFn& word) {
  if (!col.has_null_bitmap()) {
    for (size_t r = 0; r < n; ++r) keys[r] = Mix(keys[r], word(r));
    return;
  }
  for (size_t r = 0; r < n; ++r) {
    keys[r] = Mix(keys[r], col.IsNull(r) ? kNullTag : word(r));
  }
}

}  // namespace

RecordColumns ColumnsOf(const rel::Chunk& chunk, const std::vector<int>& cols) {
  RecordColumns out;
  out.reserve(cols.size());
  for (int c : cols) out.push_back(&chunk.column(c));
  return out;
}

void AppendRecordKeys(const RecordColumns& cols, size_t n,
                      std::vector<int64_t>* keys) {
  std::vector<uint64_t> h(n, kKeySeed);
  for (const rel::Column* col : cols) {
    switch (col->type()) {
      case rel::DataType::kInt64:
      case rel::DataType::kBool: {
        const int64_t* v = col->ints().data();
        MixColumn(*col, n, h.data(),
                  [v](size_t r) { return static_cast<uint64_t>(v[r]); });
        break;
      }
      case rel::DataType::kDouble: {
        const double* v = col->doubles().data();
        MixColumn(*col, n, h.data(),
                  [v](size_t r) { return DoubleBits(v[r]); });
        break;
      }
      case rel::DataType::kString: {
        const std::string* v = col->strings().data();
        MixColumn(*col, n, h.data(), [v](size_t r) {
          return static_cast<uint64_t>(BytesHash(v[r].data(), v[r].size()));
        });
        break;
      }
      case rel::DataType::kIntArray: {
        const rel::IntArray* v = col->arrays().data();
        MixColumn(*col, n, h.data(), [v](size_t r) {
          return static_cast<uint64_t>(
              BytesHash(v[r].data(), v[r].size() * sizeof(int64_t)));
        });
        break;
      }
      case rel::DataType::kNull:
        break;
    }
  }
  keys->reserve(keys->size() + n);
  for (uint64_t k : h) keys->push_back(static_cast<int64_t>(k));
}

bool RecordsMatch(const RecordColumns& a, size_t row_a,
                  const RecordColumns& b, size_t row_b) {
  for (size_t i = 0; i < a.size(); ++i) {
    const rel::Column& x = *a[i];
    const rel::Column& y = *b[i];
    const bool x_null = x.IsNull(row_a);
    const bool y_null = y.IsNull(row_b);
    if (x_null || y_null) {
      if (x_null && y_null) continue;
      return false;
    }
    switch (x.type()) {
      case rel::DataType::kInt64:
      case rel::DataType::kBool:
        if (x.ints()[row_a] != y.ints()[row_b]) return false;
        break;
      case rel::DataType::kDouble:
        if (!DoublesMatch(x.doubles()[row_a], y.doubles()[row_b])) return false;
        break;
      case rel::DataType::kString:
        if (x.strings()[row_a] != y.strings()[row_b]) return false;
        break;
      case rel::DataType::kIntArray:
        if (x.arrays()[row_a] != y.arrays()[row_b]) return false;
        break;
      case rel::DataType::kNull:
        break;
    }
  }
  return true;
}

RecordIndex::RecordIndex(std::vector<RecordColumns> parts,
                         const std::vector<int64_t>& keys)
    : parts_(std::move(parts)) {
  uint32_t total = 0;
  for (const RecordColumns& part : parts_) {
    offsets_.push_back(total);
    total += static_cast<uint32_t>(part.empty() ? 0 : part[0]->size());
  }
  table_.Build(keys);
}

uint32_t RecordIndex::FindFirst(int64_t key, const RecordColumns& probe,
                                size_t row, uint32_t limit) const {
  return FirstMatchFrom(table_.Find(key), probe, row, limit);
}

uint32_t RecordIndex::FirstMatchFrom(uint32_t m, const RecordColumns& probe,
                                     size_t row, uint32_t limit) const {
  for (; m != kNone && m < limit; m = table_.Next(m)) {
    auto [part, part_row] = Locate(m);
    if (RecordsMatch(parts_[part], part_row, probe, row)) return m;
  }
  return kNone;
}

std::vector<uint32_t> RecordIndex::FindFirstBatch(
    const std::vector<int64_t>& keys, const RecordColumns& probe) const {
  // The first key hit of every row; the chains are ascending, so a hit
  // that is equal is the first equal row.
  const size_t n = keys.size();
  std::vector<uint32_t> out(n);
  std::vector<std::pair<size_t, size_t>> hits(n);
  std::vector<uint8_t> equal(n);
  for (size_t r = 0; r < n; ++r) {
    out[r] = table_.Find(keys[r]);
    equal[r] = out[r] != kNone;
    if (equal[r]) hits[r] = Locate(out[r]);
  }
  for (size_t c = 0; c < probe.size(); ++c) {
    const rel::Column& y = *probe[c];
    switch (y.type()) {
      case rel::DataType::kInt64:
      case rel::DataType::kBool:
        VerifyColumn<int64_t, &rel::Column::ints>(parts_, c, y, std::equal_to<>(),
                                                  hits, &equal);
        break;
      case rel::DataType::kDouble:
        VerifyColumn<double, &rel::Column::doubles>(
            parts_, c, y, [](double p, double q) { return DoublesMatch(p, q); },
            hits, &equal);
        break;
      case rel::DataType::kString:
        VerifyColumn<std::string, &rel::Column::strings>(
            parts_, c, y, std::equal_to<>(), hits, &equal);
        break;
      case rel::DataType::kIntArray:
        VerifyColumn<rel::IntArray, &rel::Column::arrays>(
            parts_, c, y, std::equal_to<>(), hits, &equal);
        break;
      case rel::DataType::kNull:
        break;
    }
  }
  for (size_t r = 0; r < n; ++r) {
    if (out[r] != kNone && !equal[r]) {
      out[r] = FirstMatchFrom(table_.Next(out[r]), probe, r, kNone);
    }
  }
  return out;
}

std::pair<size_t, size_t> RecordIndex::Locate(uint32_t i) const {
  size_t part = static_cast<size_t>(
      std::upper_bound(offsets_.begin(), offsets_.end(), i) -
      offsets_.begin() - 1);
  return {part, i - offsets_[part]};
}

std::vector<std::vector<uint32_t>> FirstOccurrences(
    std::vector<RecordColumns> parts, const std::vector<int64_t>& keys) {
  RecordIndex index(std::move(parts), keys);
  std::vector<std::vector<uint32_t>> keep(index.parts().size());
  uint32_t i = 0;
  for (size_t p = 0; p < index.parts().size(); ++p) {
    const RecordColumns& part = index.parts()[p];
    const size_t n = part.empty() ? 0 : part[0]->size();
    for (size_t r = 0; r < n; ++r, ++i) {
      if (index.FindFirst(keys[i], part, r, i) == RecordIndex::kNone) {
        keep[p].push_back(static_cast<uint32_t>(r));
      }
    }
  }
  return keep;
}

}  // namespace orpheus::core
