#include "relstore/executor.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "common/flat_join_table.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "relstore/database.h"
#include "relstore/eval.h"

namespace orpheus::rel {

namespace {

// Executor-only registry series (rows/probes/pages mirror through
// ExecStatCell in executor.h). Cached lookup; per-call cost is one
// relaxed add.
obs::Counter* BatchCounter() {
  static obs::Counter* c = obs::GlobalMetrics().GetCounter(
      "orpheus_exec_batches_total",
      "Scan batches dispatched by the batched operators.");
  return c;
}

// Scan batches covering n rows; must agree with ParallelBatchFor's
// decomposition, hence the shared helper.
size_t NumScanBatches(size_t n) { return NumBatches(n, kScanBatchRows); }

// Collects column references appearing in an expression tree.
void CollectColumnRefs(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind == ExprKind::kColumnRef) out->push_back(&expr);
  for (const ExprPtr& arg : expr.args) CollectColumnRefs(*arg, out);
  // Subquery internals reference their own scopes; skip them.
}

// True if every column ref in `expr` resolves in `schema`.
bool ResolvableIn(const Expr& expr, const Schema& schema) {
  std::vector<const Expr*> refs;
  CollectColumnRefs(expr, &refs);
  for (const Expr* ref : refs) {
    if (!schema.Resolve(ref->column).ok()) return false;
  }
  return true;
}

void SplitConjuncts(const Expr* expr, std::vector<const Expr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == ExprKind::kBinary && expr->bin_op == BinOp::kAnd) {
    SplitConjuncts(expr->args[0].get(), out);
    SplitConjuncts(expr->args[1].get(), out);
    return;
  }
  out->push_back(expr);
}

bool ContainsAggregate(const Expr& expr) {
  if (expr.IsAggregate()) return true;
  for (const ExprPtr& arg : expr.args) {
    if (ContainsAggregate(*arg)) return true;
  }
  return false;
}

bool IsUnnestCall(const Expr& expr) {
  return expr.kind == ExprKind::kFunc && expr.func_name == "unnest";
}

// Serializes a value into a byte string for group-by / distinct keys.
void EncodeValue(const Value& v, std::string* out) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case DataType::kNull:
      break;
    case DataType::kInt64:
    case DataType::kBool: {
      int64_t x = v.AsInt();
      out->append(reinterpret_cast<const char*>(&x), sizeof(x));
      break;
    }
    case DataType::kDouble: {
      double d = v.AsDouble();
      out->append(reinterpret_cast<const char*>(&d), sizeof(d));
      break;
    }
    case DataType::kString: {
      size_t len = v.AsString().size();
      out->append(reinterpret_cast<const char*>(&len), sizeof(len));
      out->append(v.AsString());
      break;
    }
    case DataType::kIntArray: {
      size_t len = v.AsArray().size();
      out->append(reinterpret_cast<const char*>(&len), sizeof(len));
      for (int64_t x : v.AsArray()) {
        out->append(reinterpret_cast<const char*>(&x), sizeof(x));
      }
      break;
    }
  }
}

DataType InferType(const Value& v) {
  return v.is_null() ? DataType::kInt64 : v.type();
}

// Strips an "alias." qualifier.
std::string BaseName(const std::string& name) {
  size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

int64_t ChunkPages(const Chunk& chunk) {
  return chunk.ByteSize() / 8192 + 1;
}

// One probe batch's join output: parallel (left,right) row-id vectors.
struct MatchList {
  std::vector<uint32_t> l;
  std::vector<uint32_t> r;
};

// Concatenates per-batch match lists in batch order. Probe batches
// cover ascending probe-row ranges, so this reproduces the serial
// probe loop's output order exactly — for any thread count.
void AppendMatches(const std::vector<MatchList>& parts,
                   std::vector<uint32_t>* lidx, std::vector<uint32_t>* ridx) {
  size_t total = lidx->size();
  for (const MatchList& part : parts) total += part.l.size();
  lidx->reserve(total);
  ridx->reserve(total);
  for (const MatchList& part : parts) {
    lidx->insert(lidx->end(), part.l.begin(), part.l.end());
    ridx->insert(ridx->end(), part.r.begin(), part.r.end());
  }
}

// True if `sel` selects all n rows in order.
bool IsIdentity(const std::vector<uint32_t>& sel, size_t n) {
  if (sel.size() != n) return false;
  for (size_t i = 0; i < n; ++i) {
    if (sel[i] != i) return false;
  }
  return true;
}

// Runs `probe(begin, end, MatchList*)` over [0, total) in
// kScanBatchRows batches and concatenates the per-batch matches in
// batch order into (lidx, ridx); a single-batch probe emits into one
// list and moves it out.
template <typename ProbeFn>
Status BatchedProbe(size_t total, const ProbeFn& probe,
                    std::vector<uint32_t>* lidx, std::vector<uint32_t>* ridx) {
  const size_t nb = NumScanBatches(total);
  BatchCounter()->Inc(nb);
  if (nb <= 1) {
    MatchList out;
    probe(0, total, &out);
    *lidx = std::move(out.l);
    *ridx = std::move(out.r);
    return Status::OK();
  }
  std::vector<MatchList> parts(nb);
  ORPHEUS_RETURN_NOT_OK(ParallelBatchFor(
      total, kScanBatchRows, [&](size_t begin, size_t end, size_t b) -> Status {
        probe(begin, end, &parts[b]);
        return Status::OK();
      }));
  AppendMatches(parts, lidx, ridx);
  return Status::OK();
}

}  // namespace

Result<Executor::Input> Executor::ResolveTableRef(const TableRef& ref) {
  Input input;
  if (ref.subquery != nullptr) {
    ORPHEUS_ASSIGN_OR_RETURN(Chunk sub, RunSelect(*ref.subquery));
    input.owned = std::make_unique<Chunk>(std::move(sub));
    input.data = input.owned.get();
    input.schema = input.data->schema().Qualified(ref.alias);
    input.alias = ref.alias;
    return input;
  }
  ORPHEUS_ASSIGN_OR_RETURN(Table * table, db_->GetTable(ref.name));
  input.data = &table->data();
  input.schema = table->schema().Qualified(ref.alias);
  input.base = table;
  input.alias = ref.alias;
  return input;
}

Status Executor::FilterSelection(const Evaluator& eval,
                                 const std::vector<const Expr*>& conjuncts,
                                 const Chunk& data,
                                 std::vector<uint32_t>* sel) {
  const size_t n = data.num_rows();
  const size_t nb = NumScanBatches(n);
  obs::ProfileOpScope op_scope("filter");
  op_scope.AddRowsIn(n);
  op_scope.AddBatches(nb);
  BatchCounter()->Inc(nb);
  const size_t sel_before = sel->size();
  auto filter_range = [&](size_t begin, size_t end,
                          std::vector<uint32_t>* out) -> Status {
    for (size_t row = begin; row < end; ++row) {
      bool pass = true;
      for (const Expr* conjunct : conjuncts) {
        ORPHEUS_ASSIGN_OR_RETURN(bool ok, eval.EvalPredicate(*conjunct, data, row));
        if (!ok) {
          pass = false;
          break;
        }
      }
      if (pass) out->push_back(static_cast<uint32_t>(row));
    }
    return Status::OK();
  };
  if (nb <= 1) {
    // Single batch: run inline, no scheduling.
    ORPHEUS_RETURN_NOT_OK(filter_range(0, n, sel));
    op_scope.AddRowsOut(sel->size() - sel_before);
    return Status::OK();
  }
  std::vector<std::vector<uint32_t>> parts(nb);
  ORPHEUS_RETURN_NOT_OK(ParallelBatchFor(
      n, kScanBatchRows, [&](size_t begin, size_t end, size_t b) {
        return filter_range(begin, end, &parts[b]);
      }));
  size_t total = sel->size();
  for (const std::vector<uint32_t>& part : parts) total += part.size();
  sel->reserve(total);
  for (const std::vector<uint32_t>& part : parts) {
    sel->insert(sel->end(), part.begin(), part.end());
  }
  op_scope.AddRowsOut(sel->size() - sel_before);
  return Status::OK();
}

Status Executor::EvalScalarBatched(const Evaluator& eval, const Expr& expr,
                                   const Chunk& data,
                                   const std::vector<uint32_t>& sel,
                                   std::vector<Value>* out) {
  out->assign(sel.size(), Value());
  return ParallelBatchFor(
      sel.size(), kScanBatchRows,
      [&](size_t begin, size_t end, size_t) -> Status {
        for (size_t i = begin; i < end; ++i) {
          ORPHEUS_ASSIGN_OR_RETURN((*out)[i], eval.Eval(expr, data, sel[i]));
        }
        return Status::OK();
      });
}

Status Executor::PushDownFilters(std::vector<Input>* inputs,
                                 std::vector<const Expr*>* conjuncts) {
  std::vector<const Expr*> remaining;
  std::vector<std::vector<const Expr*>> per_input(inputs->size());
  for (const Expr* conjunct : *conjuncts) {
    int home = -1;
    int matches = 0;
    for (size_t i = 0; i < inputs->size(); ++i) {
      if (ResolvableIn(*conjunct, (*inputs)[i].schema)) {
        home = static_cast<int>(i);
        ++matches;
      }
    }
    if (matches == 1) {
      per_input[static_cast<size_t>(home)].push_back(conjunct);
    } else {
      remaining.push_back(conjunct);
    }
  }
  for (size_t i = 0; i < inputs->size(); ++i) {
    if (per_input[i].empty()) continue;
    Input& input = (*inputs)[i];
    Evaluator eval(this);
    for (const Expr* conjunct : per_input[i]) {
      ORPHEUS_RETURN_NOT_OK(eval.Bind(const_cast<Expr*>(conjunct), input.schema));
    }
    const Chunk& src = *input.data;
    std::vector<uint32_t> sel;
    ORPHEUS_RETURN_NOT_OK(FilterSelection(eval, per_input[i], src, &sel));
    db_->stats()->rows_scanned += static_cast<int64_t>(src.num_rows());
    db_->stats()->pages_read +=
        input.base != nullptr ? input.base->num_pages() : ChunkPages(src);
    auto filtered = std::make_unique<Chunk>(src.schema());
    filtered->GatherFrom(src, sel);
    input.owned = std::move(filtered);
    input.data = input.owned.get();
    input.base = nullptr;  // a filtered input is no longer the raw table
  }
  *conjuncts = std::move(remaining);
  return Status::OK();
}

Result<Executor::Input> Executor::JoinInputs(std::vector<Input> inputs,
                                             std::vector<const Expr*>* conjuncts) {
  Input acc = std::move(inputs[0]);
  for (size_t i = 1; i < inputs.size(); ++i) {
    Input right = std::move(inputs[i]);
    // Extract equi-join keys between acc and right.
    std::vector<std::pair<const Expr*, const Expr*>> keys;
    std::vector<const Expr*> remaining;
    for (const Expr* conjunct : *conjuncts) {
      bool used = false;
      if (conjunct->kind == ExprKind::kBinary && conjunct->bin_op == BinOp::kEq &&
          conjunct->args[0]->kind == ExprKind::kColumnRef &&
          conjunct->args[1]->kind == ExprKind::kColumnRef) {
        const Expr* a = conjunct->args[0].get();
        const Expr* b = conjunct->args[1].get();
        bool a_left = acc.schema.Resolve(a->column).ok();
        bool a_right = right.schema.Resolve(a->column).ok();
        bool b_left = acc.schema.Resolve(b->column).ok();
        bool b_right = right.schema.Resolve(b->column).ok();
        if (a_left && !a_right && b_right && !b_left) {
          keys.emplace_back(a, b);
          used = true;
        } else if (b_left && !b_right && a_right && !a_left) {
          keys.emplace_back(b, a);
          used = true;
        }
      }
      if (!used) remaining.push_back(conjunct);
    }
    *conjuncts = std::move(remaining);
    ORPHEUS_ASSIGN_OR_RETURN(acc, JoinPair(std::move(acc), std::move(right), keys));
  }
  return acc;
}

Result<Executor::Input> Executor::JoinPair(
    Input left, Input right,
    const std::vector<std::pair<const Expr*, const Expr*>>& keys) {
  obs::ProfileOpScope op_scope("join");
  ExecStats* stats = db_->stats();
  const Chunk& lc = *left.data;
  const Chunk& rc = *right.data;
  op_scope.AddRowsIn(lc.num_rows() + rc.num_rows());
  std::vector<uint32_t> lidx;
  std::vector<uint32_t> ridx;

  if (keys.empty()) {
    op_scope.SetDetail("cross");
    // Cross join; guarded against blowups. Each output offset is a
    // pure function of the row counts, so batches of left rows write
    // disjoint slices of the pre-sized result directly.
    size_t total = lc.num_rows() * rc.num_rows();
    if (total > size_t{10} * 1000 * 1000) {
      return Status::InvalidArgument("cross join result too large");
    }
    const size_t nr = rc.num_rows();
    lidx.resize(total);
    ridx.resize(total);
    ORPHEUS_RETURN_NOT_OK(ParallelBatchFor(
        lc.num_rows(), kScanBatchRows,
        [&](size_t begin, size_t end, size_t) -> Status {
          size_t out = begin * nr;
          for (size_t l = begin; l < end; ++l) {
            for (size_t r = 0; r < nr; ++r, ++out) {
              lidx[out] = static_cast<uint32_t>(l);
              ridx[out] = static_cast<uint32_t>(r);
            }
          }
          return Status::OK();
        }));
    stats->rows_scanned += static_cast<int64_t>(total);
  } else {
    // Resolve key columns on both sides.
    std::vector<int> lcols;
    std::vector<int> rcols;
    for (const auto& [lexpr, rexpr] : keys) {
      ORPHEUS_ASSIGN_OR_RETURN(int lcol, left.schema.Resolve(lexpr->column));
      ORPHEUS_ASSIGN_OR_RETURN(int rcol, right.schema.Resolve(rexpr->column));
      lcols.push_back(lcol);
      rcols.push_back(rcol);
    }
    bool single_int_key =
        keys.size() == 1 &&
        lc.column(lcols[0]).type() == DataType::kInt64 &&
        rc.column(rcols[0]).type() == DataType::kInt64;

    JoinMethod method = db_->join_method();
    if (!single_int_key) method = JoinMethod::kHash;
    // Index-nested-loop needs an index on one side's base table.
    Table* indexed_base = nullptr;
    std::string index_col;
    bool index_right = false;
    if (method == JoinMethod::kIndexNestedLoop) {
      std::string rname = BaseName(right.schema.column(rcols[0]).name);
      std::string lname = BaseName(left.schema.column(lcols[0]).name);
      if (right.base != nullptr && right.base->HasIndex(rname)) {
        indexed_base = right.base;
        index_col = rname;
        index_right = true;
      } else if (left.base != nullptr && left.base->HasIndex(lname)) {
        indexed_base = left.base;
        index_col = lname;
      } else {
        method = JoinMethod::kHash;  // no usable index; fall back
      }
    }
    const bool inl = method == JoinMethod::kIndexNestedLoop;

    if (!single_int_key) {
      // Generic multi-key hash join via encoded keys; rows with any
      // NULL key are skipped (SQL equi-join semantics). Same serial
      // build and batch-parallel probe as the single-INT-key path,
      // with string-encoded composite keys.
      auto any_null = [](const Chunk& chunk, const std::vector<int>& cols,
                         size_t row) {
        for (int col : cols) {
          if (chunk.column(col).IsNull(row)) return true;
        }
        return false;
      };
      op_scope.SetDetail("hash multi-key");
      std::unordered_map<std::string, std::vector<uint32_t>> hash;
      {
        obs::ProfileOpScope build_scope("hash_build");
        build_scope.AddRowsIn(rc.num_rows());
        build_scope.AddBatches(1);
        std::string key;
        for (size_t r = 0; r < rc.num_rows(); ++r) {
          if (any_null(rc, rcols, r)) continue;
          key.clear();
          for (int col : rcols) EncodeValue(rc.Get(r, col), &key);
          hash[key].push_back(static_cast<uint32_t>(r));
        }
        build_scope.AddRowsOut(hash.size());
      }
      {
        obs::ProfileOpScope probe_scope("hash_probe");
        probe_scope.AddRowsIn(lc.num_rows());
        probe_scope.AddBatches(NumScanBatches(lc.num_rows()));
        ORPHEUS_RETURN_NOT_OK(BatchedProbe(
            lc.num_rows(),
            [&](size_t begin, size_t end, MatchList* out) {
              std::string key;
              for (size_t l = begin; l < end; ++l) {
                if (any_null(lc, lcols, l)) continue;
                key.clear();
                for (int col : lcols) EncodeValue(lc.Get(l, col), &key);
                auto hit = hash.find(key);
                if (hit == hash.end()) continue;
                for (uint32_t m : hit->second) {
                  out->l.push_back(static_cast<uint32_t>(l));
                  out->r.push_back(m);
                }
              }
            },
            &lidx, &ridx));
        probe_scope.AddRowsOut(lidx.size());
      }
    } else if (method == JoinMethod::kMerge) {
      op_scope.SetDetail("merge");
      const Column& lkcol = lc.column(lcols[0]);
      const Column& rkcol = rc.column(rcols[0]);
      const std::vector<int64_t>& lkeys = lkcol.ints();
      const std::vector<int64_t>& rkeys = rkcol.ints();
      // NULL keys never join, and their storage placeholder (0) would
      // otherwise sort into the run of a genuine key 0 — so NULL rows
      // are dropped from the sort order up front, not skipped in the
      // merge scan.
      auto sorted_order = [](const Column& col,
                             const std::vector<int64_t>& keys,
                             bool presorted) {
        std::vector<uint32_t> order;
        order.reserve(keys.size());
        for (size_t i = 0; i < keys.size(); ++i) {
          if (!col.IsNull(i)) order.push_back(static_cast<uint32_t>(i));
        }
        if (!presorted) {
          // Deterministic parallel merge sort: bit-identical to
          // std::stable_sort at every thread count (thread_pool.h).
          ParallelStableSort(&order, kScanBatchRows,
                             [&keys](uint32_t a, uint32_t b) {
                               return keys[a] < keys[b];
                             });
        }
        return order;
      };
      bool l_sorted = left.base != nullptr &&
                      left.base->clustered_on() ==
                          BaseName(left.schema.column(lcols[0]).name);
      bool r_sorted = right.base != nullptr &&
                      right.base->clustered_on() ==
                          BaseName(right.schema.column(rcols[0]).name);
      std::vector<uint32_t> lorder;
      std::vector<uint32_t> rorder;
      {
        obs::ProfileOpScope sort_scope("merge_sort", "left");
        sort_scope.AddRowsIn(lkeys.size());
        lorder = sorted_order(lkcol, lkeys, l_sorted);
        sort_scope.AddRowsOut(lorder.size());
      }
      {
        obs::ProfileOpScope sort_scope("merge_sort", "right");
        sort_scope.AddRowsIn(rkeys.size());
        rorder = sorted_order(rkcol, rkeys, r_sorted);
        sort_scope.AddRowsOut(rorder.size());
      }
      size_t li = 0;
      size_t ri = 0;
      while (li < lorder.size() && ri < rorder.size()) {
        int64_t lk = lkeys[lorder[li]];
        int64_t rk = rkeys[rorder[ri]];
        if (lk < rk) {
          ++li;
        } else if (lk > rk) {
          ++ri;
        } else {
          size_t lrun = li;
          while (lrun < lorder.size() && lkeys[lorder[lrun]] == lk) ++lrun;
          size_t rrun = ri;
          while (rrun < rorder.size() && rkeys[rorder[rrun]] == rk) ++rrun;
          for (size_t a = li; a < lrun; ++a) {
            for (size_t b = ri; b < rrun; ++b) {
              lidx.push_back(lorder[a]);
              ridx.push_back(rorder[b]);
            }
          }
          li = lrun;
          ri = rrun;
        }
      }
    } else {
      // Single INT key: a hash join builds a FlatJoinTable on the
      // smaller side (the paper's "hash table on rids, sequential scan
      // on the data table"); an index-nested-loop join takes the
      // indexed base table's own FlatJoinTable (Table::Index, built
      // here on the coordinating thread if DML invalidated it). Either
      // way the other side probes it batch-parallel, per-batch match
      // lists concatenated in batch order, and every chain lists its
      // rows in ascending order — so the output order is the serial
      // probe's at every thread count (see executor.h). NULL keys
      // never participate in equi-joins: the build skips them and the
      // probe skips them.
      const bool build_right =
          inl ? index_right : rc.num_rows() <= lc.num_rows();
      const Column& bcol = build_right ? rc.column(rcols[0]) : lc.column(lcols[0]);
      const Column& pcol = build_right ? lc.column(lcols[0]) : rc.column(rcols[0]);
      const std::vector<int64_t>& pkeys = pcol.ints();
      FlatJoinTable built;
      const FlatJoinTable* table = &built;
      if (inl) {
        op_scope.SetDetail("inl");
        ORPHEUS_ASSIGN_OR_RETURN(table, indexed_base->Index(index_col));
      } else {
        op_scope.SetDetail("hash");
        obs::ProfileOpScope build_scope("hash_build");
        build_scope.AddRowsIn(bcol.size());
        build_scope.AddBatches(1);
        built.Build(bcol.ints(), [&](size_t i) { return bcol.IsNull(i); });
        build_scope.AddRowsOut(built.num_keys());
      }
      {
        obs::ProfileOpScope probe_scope(inl ? "inl_probe" : "hash_probe");
        probe_scope.AddRowsIn(pkeys.size());
        probe_scope.AddBatches(NumScanBatches(pkeys.size()));
        ORPHEUS_RETURN_NOT_OK(BatchedProbe(
            pkeys.size(),
            [&](size_t begin, size_t end, MatchList* out) {
              for (size_t i = begin; i < end; ++i) {
                if (pcol.IsNull(i)) continue;
                for (uint32_t m = table->Find(pkeys[i]);
                     m != FlatJoinTable::kEnd; m = table->Next(m)) {
                  if (build_right) {
                    out->l.push_back(static_cast<uint32_t>(i));
                    out->r.push_back(m);
                  } else {
                    out->l.push_back(m);
                    out->r.push_back(static_cast<uint32_t>(i));
                  }
                }
              }
            },
            &lidx, &ridx));
        probe_scope.AddRowsOut(lidx.size());
      }
      if (inl) {
        // Index probes: one per non-NULL outer key. Pages: matches in a
        // table clustered on the key lie on contiguous pages, so count
        // the distinct pages they touch; scattered matches cost about
        // one random page per outer row, but never more than the table.
        int64_t probes = 0;
        for (size_t i = 0; i < pkeys.size(); ++i) probes += pcol.IsNull(i) ? 0 : 1;
        int64_t pages = std::min<int64_t>(static_cast<int64_t>(pkeys.size()),
                                          indexed_base->num_pages());
        if (indexed_base->clustered_on() == index_col) {
          const int64_t rows_per_page = indexed_base->rows_per_page();
          std::vector<bool> touched(static_cast<size_t>(indexed_base->num_pages()));
          pages = 0;
          for (uint32_t row : build_right ? ridx : lidx) {
            auto page = static_cast<size_t>(row / rows_per_page);
            if (!touched[page]) {
              touched[page] = true;
              ++pages;
            }
          }
        }
        stats->index_probes += probes;
        stats->rows_scanned += static_cast<int64_t>(pkeys.size());
        stats->pages_read += pages;
      }
    }
    if (!inl) {
      stats->rows_scanned +=
          static_cast<int64_t>(lc.num_rows() + rc.num_rows());
      stats->pages_read += left.base != nullptr ? left.base->num_pages()
                                                : ChunkPages(lc);
      stats->pages_read += right.base != nullptr ? right.base->num_pages()
                                                 : ChunkPages(rc);
    }
  }

  op_scope.AddRowsOut(lidx.size());

  // Materialize the combined chunk: left columns then right columns.
  // Output columns are disjoint objects, so their gathers fan out
  // across the pool (one task per column; a gather's content depends
  // only on its source column and the match vectors).
  Schema combined;
  for (const ColumnDef& def : left.schema.columns()) {
    combined.AddColumn(def.name, def.type);
  }
  for (const ColumnDef& def : right.schema.columns()) {
    combined.AddColumn(def.name, def.type);
  }
  auto out = std::make_unique<Chunk>(combined);
  const int num_left_cols = lc.num_columns();
  ExecParallelFor(num_left_cols + rc.num_columns(), [&](int c) {
    if (c < num_left_cols) {
      out->mutable_column(c).Gather(lc.column(c), lidx);
    } else {
      out->mutable_column(c).Gather(rc.column(c - num_left_cols), ridx);
    }
  });
  // Free the consumed inputs while op_scope is open, so their teardown
  // is charged to this join rather than to no operator.
  left = Input();
  right = Input();
  Input result;
  result.schema = out->schema();
  result.owned = std::move(out);
  result.data = result.owned.get();
  return result;
}

Result<Chunk> Executor::RunSelect(const SelectStmt& select) {
  // FROM-less SELECT evaluates items once against a dummy row.
  if (select.from.empty()) {
    Schema dummy_schema;
    dummy_schema.AddColumn("_dummy", DataType::kInt64);
    Chunk dummy(dummy_schema);
    dummy.AppendRow({Value::Int(0)});
    Input input;
    input.data = &dummy;
    input.schema = dummy_schema;
    std::vector<uint32_t> sel = {0};
    return Project(select, std::move(input), sel);
  }

  std::vector<Input> inputs;
  inputs.reserve(select.from.size());
  for (const TableRef& ref : select.from) {
    // Subquery inputs recurse into RunSelect on this thread, so their
    // operator scopes nest under this scan node in the profile tree.
    obs::ProfileOpScope op_scope(
        "scan", ref.subquery != nullptr && !ref.alias.empty() ? ref.alias
                                                              : ref.name);
    ORPHEUS_ASSIGN_OR_RETURN(Input input, ResolveTableRef(ref));
    op_scope.AddRowsOut(input.data->num_rows());
    inputs.push_back(std::move(input));
  }

  std::vector<const Expr*> conjuncts;
  SplitConjuncts(select.where.get(), &conjuncts);

  Input joined;
  if (inputs.size() == 1) {
    joined = std::move(inputs[0]);
  } else {
    ORPHEUS_RETURN_NOT_OK(PushDownFilters(&inputs, &conjuncts));
    ORPHEUS_ASSIGN_OR_RETURN(joined,
                             JoinInputs(std::move(inputs), &conjuncts));
  }

  // Residual filter -> selection vector.
  const Chunk& data = *joined.data;
  std::vector<uint32_t> sel;
  if (conjuncts.empty()) {
    sel.resize(data.num_rows());
    std::iota(sel.begin(), sel.end(), 0);
    if (joined.base != nullptr) {
      // Whole-table scan still touches every page.
      db_->stats()->pages_read += joined.base->num_pages();
      db_->stats()->rows_scanned += static_cast<int64_t>(data.num_rows());
    }
  } else {
    Evaluator eval(this);
    for (const Expr* conjunct : conjuncts) {
      ORPHEUS_RETURN_NOT_OK(eval.Bind(const_cast<Expr*>(conjunct), joined.schema));
    }
    ORPHEUS_RETURN_NOT_OK(FilterSelection(eval, conjuncts, data, &sel));
    db_->stats()->rows_scanned += static_cast<int64_t>(data.num_rows());
    db_->stats()->pages_read += joined.base != nullptr
                                    ? joined.base->num_pages()
                                    : ChunkPages(data);
  }

  bool aggregating = !select.group_by.empty();
  for (const SelectItem& item : select.items) {
    if (ContainsAggregate(*item.expr)) aggregating = true;
  }

  Chunk out;
  bool ordered_on_input = false;
  if (aggregating) {
    ORPHEUS_ASSIGN_OR_RETURN(out, Aggregate(select, std::move(joined), sel));
    ORPHEUS_RETURN_NOT_OK(ApplyHaving(select, &out));
  } else {
    // SQL permits ORDER BY on columns absent from the select list;
    // those keys only exist pre-projection, so sort the selection
    // vector against the input schema when the keys resolve there.
    if (!select.order_by.empty()) {
      bool resolvable = true;
      for (const OrderItem& item : select.order_by) {
        if (!ResolvableIn(*item.expr, joined.schema)) {
          resolvable = false;
          break;
        }
      }
      if (resolvable) {
        obs::ProfileOpScope op_scope("order_by", "pre-projection");
        op_scope.AddRowsIn(sel.size());
        op_scope.AddRowsOut(sel.size());
        op_scope.AddBatches(NumScanBatches(sel.size()));
        ORPHEUS_RETURN_NOT_OK(
            SortByOrderKeys(select.order_by, joined.schema, data, &sel));
        ordered_on_input = true;
      }
    }
    ORPHEUS_ASSIGN_OR_RETURN(out, Project(select, std::move(joined), sel));
  }

  if (select.distinct) {
    ORPHEUS_RETURN_NOT_OK(ApplyDistinct(&out));
  }
  if (ordered_on_input) {
    // Order already applied; only the LIMIT remains.
    SelectStmt limit_only;
    limit_only.limit = select.limit;
    ORPHEUS_RETURN_NOT_OK(ApplyOrderByLimit(limit_only, &out));
  } else {
    ORPHEUS_RETURN_NOT_OK(ApplyOrderByLimit(select, &out));
  }
  return out;
}

Result<Chunk> Executor::Project(const SelectStmt& select, Input input,
                                const std::vector<uint32_t>& sel) {
  obs::ProfileOpScope op_scope("project");
  op_scope.AddRowsIn(sel.size());
  const Chunk& data = *input.data;
  const Schema& schema = input.schema;

  // Expand the select list into concrete output columns.
  struct OutCol {
    int source_col = -1;        // >= 0: direct gather from input
    const Expr* expr = nullptr; // computed expression
    bool unnest = false;        // expand array elements into rows
    std::string name;
  };
  std::vector<OutCol> out_cols;
  Evaluator eval(this);
  int unnest_count = 0;
  for (const SelectItem& item : select.items) {
    if (item.expr->kind == ExprKind::kStar) {
      const std::string& qualifier = item.expr->column;
      for (int c = 0; c < schema.num_columns(); ++c) {
        const std::string& name = schema.column(c).name;
        if (!qualifier.empty()) {
          if (name.rfind(qualifier + ".", 0) != 0) continue;
        }
        OutCol out;
        out.source_col = c;
        out.name = name;
        out_cols.push_back(std::move(out));
      }
      continue;
    }
    OutCol out;
    if (IsUnnestCall(*item.expr)) {
      if (item.expr->args.size() != 1) {
        return Status::InvalidArgument("unnest expects exactly one argument");
      }
      out.unnest = true;
      out.expr = item.expr->args[0].get();
      ORPHEUS_RETURN_NOT_OK(eval.Bind(item.expr->args[0].get(), schema));
      ++unnest_count;
    } else if (item.expr->kind == ExprKind::kColumnRef) {
      ORPHEUS_ASSIGN_OR_RETURN(out.source_col, schema.Resolve(item.expr->column));
    } else {
      out.expr = item.expr.get();
      ORPHEUS_RETURN_NOT_OK(eval.Bind(item.expr.get(), schema));
    }
    out.name = !item.alias.empty()
                   ? item.alias
                   : (item.expr->kind == ExprKind::kColumnRef ? item.expr->column
                                                              : item.expr->ToString());
    out_cols.push_back(std::move(out));
  }
  if (unnest_count > 1) {
    return Status::NotSupported("at most one unnest() per select list");
  }

  if (unnest_count == 0) {
    // Bulk path: gathers for direct columns, row loop only for
    // computed expressions. An owned input is consumed here: under the
    // identity selection a direct column referenced once is moved into
    // the output instead of gathered. Computed columns are evaluated
    // first, so no expression reads a moved-from column. A base table
    // is never moved from.
    Schema out_schema;
    for (const OutCol& oc : out_cols) {
      DataType type;
      if (oc.source_col >= 0) {
        type = schema.column(oc.source_col).type;
      } else {
        // Infer from the first row; default INT for empty inputs.
        type = DataType::kInt64;
        if (!sel.empty()) {
          ORPHEUS_ASSIGN_OR_RETURN(Value v, eval.Eval(*oc.expr, data, sel[0]));
          type = InferType(v);
        }
      }
      out_schema.AddColumn(oc.name, type);
    }
    Chunk out(out_schema);
    std::vector<Value> computed;
    std::vector<int> refs(static_cast<size_t>(schema.num_columns()), 0);
    for (size_t c = 0; c < out_cols.size(); ++c) {
      const OutCol& oc = out_cols[c];
      if (oc.source_col >= 0) {
        ++refs[static_cast<size_t>(oc.source_col)];
        continue;
      }
      // Evaluate into a slot-per-row buffer on the pool, then append
      // in row order on this thread.
      ORPHEUS_RETURN_NOT_OK(
          EvalScalarBatched(eval, *oc.expr, data, sel, &computed));
      Column& dst = out.mutable_column(static_cast<int>(c));
      for (const Value& v : computed) dst.Append(v);
    }
    const bool movable =
        input.owned != nullptr && IsIdentity(sel, data.num_rows());
    for (size_t c = 0; c < out_cols.size(); ++c) {
      const int src = out_cols[c].source_col;
      if (src < 0) continue;
      Column& dst = out.mutable_column(static_cast<int>(c));
      if (movable && refs[static_cast<size_t>(src)] == 1) {
        dst = std::move(input.owned->mutable_column(src));
      } else {
        dst.Gather(data.column(src), sel);
      }
    }
    input = Input();  // consumed: free it inside op_scope
    op_scope.AddRowsOut(out.num_rows());
    return out;
  }

  // Unnest path: one output row per array element; other columns are
  // replicated alongside.
  Schema out_schema;
  for (const OutCol& oc : out_cols) {
    if (oc.unnest) {
      out_schema.AddColumn(oc.name, DataType::kInt64);
    } else if (oc.source_col >= 0) {
      out_schema.AddColumn(oc.name, schema.column(oc.source_col).type);
    } else {
      out_schema.AddColumn(oc.name, DataType::kInt64);
    }
  }
  Chunk out(out_schema);
  for (uint32_t row : sel) {
    // Evaluate the unnest argument once per input row.
    IntArray elements;
    for (const OutCol& oc : out_cols) {
      if (oc.unnest) {
        ORPHEUS_ASSIGN_OR_RETURN(Value v, eval.Eval(*oc.expr, data, row));
        if (v.type() != DataType::kIntArray) {
          return Status::InvalidArgument("unnest expects an INT[] argument");
        }
        elements = v.AsArray();
      }
    }
    for (int64_t element : elements) {
      for (size_t c = 0; c < out_cols.size(); ++c) {
        const OutCol& oc = out_cols[c];
        Column& dst = out.mutable_column(static_cast<int>(c));
        if (oc.unnest) {
          dst.AppendInt(element);
        } else if (oc.source_col >= 0) {
          dst.AppendFrom(data.column(oc.source_col), row);
        } else {
          ORPHEUS_ASSIGN_OR_RETURN(Value v, eval.Eval(*oc.expr, data, row));
          dst.Append(v);
        }
      }
    }
  }
  input = Input();  // consumed: free it inside op_scope
  op_scope.AddRowsOut(out.num_rows());
  return out;
}

Result<Chunk> Executor::Aggregate(const SelectStmt& select, Input input,
                                  const std::vector<uint32_t>& sel) {
  obs::ProfileOpScope op_scope("aggregate");
  op_scope.AddRowsIn(sel.size());
  const Chunk& data = *input.data;
  const Schema& schema = input.schema;
  Evaluator eval(this);

  // Bind group-by expressions.
  for (const ExprPtr& g : select.group_by) {
    ORPHEUS_RETURN_NOT_OK(eval.Bind(g.get(), schema));
  }

  // Classify select items.
  enum class AggKind { kGroupExpr, kCountStar, kCount, kSum, kAvg, kMin, kMax };
  struct ItemPlan {
    AggKind kind;
    const Expr* arg = nullptr;  // aggregate argument or group expression
    std::string name;
  };
  std::vector<ItemPlan> plans;
  for (const SelectItem& item : select.items) {
    ItemPlan plan;
    const Expr& e = *item.expr;
    if (e.IsAggregate()) {
      if (e.func_name == "count") {
        if (e.args.empty() || e.args[0]->kind == ExprKind::kStar) {
          plan.kind = AggKind::kCountStar;
        } else {
          plan.kind = AggKind::kCount;
          plan.arg = e.args[0].get();
        }
      } else {
        if (e.args.size() != 1) {
          return Status::InvalidArgument(e.func_name + " expects one argument");
        }
        plan.arg = e.args[0].get();
        if (e.func_name == "sum") plan.kind = AggKind::kSum;
        else if (e.func_name == "avg") plan.kind = AggKind::kAvg;
        else if (e.func_name == "min") plan.kind = AggKind::kMin;
        else plan.kind = AggKind::kMax;
      }
      if (plan.arg != nullptr) {
        ORPHEUS_RETURN_NOT_OK(eval.Bind(const_cast<Expr*>(plan.arg), schema));
      }
    } else if (ContainsAggregate(e)) {
      return Status::NotSupported(
          "aggregates must be top-level select items: " + e.ToString());
    } else {
      // Must match one of the GROUP BY expressions.
      bool matched = false;
      for (const ExprPtr& g : select.group_by) {
        if (g->ToString() == e.ToString()) {
          matched = true;
          break;
        }
      }
      if (!matched) {
        return Status::InvalidArgument(
            "non-aggregate select item must appear in GROUP BY: " + e.ToString());
      }
      plan.kind = AggKind::kGroupExpr;
      plan.arg = &e;
      ORPHEUS_RETURN_NOT_OK(eval.Bind(const_cast<Expr*>(&e), schema));
    }
    plan.name = !item.alias.empty()
                    ? item.alias
                    : (e.kind == ExprKind::kColumnRef ? e.column : e.ToString());
    plans.push_back(std::move(plan));
  }

  struct AggState {
    int64_t count = 0;
    double sum = 0;
    bool sum_is_int = true;
    int64_t isum = 0;
    Value min;
    Value max;
    Value rep;  // representative group expression value
  };

  // Per-batch partial aggregation state. Each batch accumulates its
  // slice of `sel` into private hash tables; the batches are then
  // merged below in batch order, which makes the group output order
  // (first occurrence in row order) and the floating-point rounding of
  // SUM/AVG independent of the thread count.
  struct BatchAgg {
    std::unordered_map<std::string, size_t> index;
    std::vector<std::string> keys;              // insertion order
    std::vector<std::vector<AggState>> groups;  // parallel to keys
  };

  const size_t nb = NumScanBatches(sel.size());
  std::vector<BatchAgg> batch_aggs(nb);
  auto aggregate_range = [&](size_t begin, size_t end,
                             BatchAgg* agg) -> Status {
    std::string key;
    for (size_t i = begin; i < end; ++i) {
      uint32_t row = sel[i];
      key.clear();
      for (const ExprPtr& g : select.group_by) {
        ORPHEUS_ASSIGN_OR_RETURN(Value v, eval.Eval(*g, data, row));
        EncodeValue(v, &key);
      }
      auto [it, inserted] = agg->index.try_emplace(key, agg->groups.size());
      if (inserted) {
        agg->keys.push_back(key);
        agg->groups.emplace_back(plans.size());
      }
      std::vector<AggState>& states = agg->groups[it->second];
      for (size_t p = 0; p < plans.size(); ++p) {
        const ItemPlan& plan = plans[p];
        AggState& st = states[p];
        switch (plan.kind) {
          case AggKind::kGroupExpr: {
            if (st.count == 0) {
              ORPHEUS_ASSIGN_OR_RETURN(st.rep, eval.Eval(*plan.arg, data, row));
            }
            ++st.count;
            break;
          }
          case AggKind::kCountStar:
            ++st.count;
            break;
          default: {
            ORPHEUS_ASSIGN_OR_RETURN(Value v, eval.Eval(*plan.arg, data, row));
            if (v.is_null()) break;
            ++st.count;
            if (plan.kind == AggKind::kCount) break;
            if (plan.kind == AggKind::kSum || plan.kind == AggKind::kAvg) {
              if (v.type() == DataType::kInt64 && st.sum_is_int) {
                st.isum += v.AsInt();
              } else {
                st.sum_is_int = false;
              }
              st.sum += v.AsDouble();
            } else if (plan.kind == AggKind::kMin) {
              if (st.min.is_null() || v.Compare(st.min) < 0) st.min = v;
            } else {
              if (st.max.is_null() || v.Compare(st.max) > 0) st.max = v;
            }
            break;
          }
        }
      }
    }
    return Status::OK();
  };
  ORPHEUS_RETURN_NOT_OK(ParallelBatchFor(
      sel.size(), kScanBatchRows, [&](size_t begin, size_t end, size_t b) {
        return aggregate_range(begin, end, &batch_aggs[b]);
      }));

  // Deterministic merge: batches in order, groups in each batch's
  // first-occurrence order. This reproduces the sequential scan's
  // group discovery order exactly.
  std::unordered_map<std::string, size_t> group_index;
  std::vector<std::vector<AggState>> groups;  // [group][item]
  for (BatchAgg& agg : batch_aggs) {
    for (size_t g = 0; g < agg.keys.size(); ++g) {
      auto [it, inserted] =
          group_index.try_emplace(std::move(agg.keys[g]), groups.size());
      if (inserted) {
        groups.push_back(std::move(agg.groups[g]));
        continue;
      }
      std::vector<AggState>& into = groups[it->second];
      const std::vector<AggState>& from = agg.groups[g];
      for (size_t p = 0; p < plans.size(); ++p) {
        AggState& st = into[p];
        const AggState& other = from[p];
        switch (plans[p].kind) {
          case AggKind::kGroupExpr:
            // `rep` stays from the earliest batch that saw the group.
            st.count += other.count;
            break;
          case AggKind::kCountStar:
          case AggKind::kCount:
            st.count += other.count;
            break;
          case AggKind::kSum:
          case AggKind::kAvg:
            st.count += other.count;
            if (!other.sum_is_int) st.sum_is_int = false;
            st.isum += other.isum;
            st.sum += other.sum;
            break;
          case AggKind::kMin:
            st.count += other.count;
            if (!other.min.is_null() &&
                (st.min.is_null() || other.min.Compare(st.min) < 0)) {
              st.min = other.min;
            }
            break;
          case AggKind::kMax:
            st.count += other.count;
            if (!other.max.is_null() &&
                (st.max.is_null() || other.max.Compare(st.max) > 0)) {
              st.max = other.max;
            }
            break;
        }
      }
    }
  }

  // With no GROUP BY and no input rows, SQL still yields one row.
  if (select.group_by.empty() && groups.empty()) {
    groups.emplace_back(plans.size());
  }

  // Produce one output row per group.
  auto value_of = [](const ItemPlan& plan, const AggState& st) -> Value {
    switch (plan.kind) {
      case AggKind::kGroupExpr:
        return st.rep;
      case AggKind::kCountStar:
      case AggKind::kCount:
        return Value::Int(st.count);
      case AggKind::kSum:
        if (st.count == 0) return Value::Null();
        return st.sum_is_int ? Value::Int(st.isum) : Value::Double(st.sum);
      case AggKind::kAvg:
        if (st.count == 0) return Value::Null();
        return Value::Double(st.sum / static_cast<double>(st.count));
      case AggKind::kMin:
        return st.min;
      case AggKind::kMax:
        return st.max;
    }
    return Value::Null();
  };

  Schema out_schema;
  for (size_t p = 0; p < plans.size(); ++p) {
    DataType type = DataType::kInt64;
    if (!groups.empty()) {
      type = InferType(value_of(plans[p], groups[0][p]));
    }
    if (plans[p].kind == AggKind::kAvg) type = DataType::kDouble;
    out_schema.AddColumn(plans[p].name, type);
  }
  Chunk out(out_schema);
  std::vector<Value> row_values(plans.size());
  for (const std::vector<AggState>& states : groups) {
    for (size_t p = 0; p < plans.size(); ++p) {
      row_values[p] = value_of(plans[p], states[p]);
    }
    out.AppendRow(row_values);
  }
  input = Input();  // consumed: free it inside op_scope
  op_scope.AddBatches(nb);
  op_scope.AddRowsOut(out.num_rows());
  return out;
}

Status Executor::ApplyHaving(const SelectStmt& select, Chunk* out) {
  if (select.having == nullptr) return Status::OK();
  Evaluator eval(this);
  ORPHEUS_RETURN_NOT_OK(eval.Bind(select.having.get(), out->schema()));
  std::vector<bool> keep(out->num_rows());
  for (size_t row = 0; row < out->num_rows(); ++row) {
    ORPHEUS_ASSIGN_OR_RETURN(bool ok, eval.EvalPredicate(*select.having, *out, row));
    keep[row] = ok;
  }
  out->FilterRows(keep);
  return Status::OK();
}

Status Executor::ApplyDistinct(Chunk* out) {
  std::unordered_set<std::string> seen;
  std::vector<bool> keep(out->num_rows());
  for (size_t row = 0; row < out->num_rows(); ++row) {
    std::string key;
    for (int c = 0; c < out->num_columns(); ++c) {
      EncodeValue(out->Get(row, c), &key);
    }
    keep[row] = seen.insert(std::move(key)).second;
  }
  out->FilterRows(keep);
  return Status::OK();
}

Status Executor::SortByOrderKeys(const std::vector<OrderItem>& order_by,
                                 const Schema& schema, const Chunk& data,
                                 std::vector<uint32_t>* rows) {
  Evaluator eval(this);
  for (const OrderItem& item : order_by) {
    ORPHEUS_RETURN_NOT_OK(eval.Bind(item.expr.get(), schema));
  }
  // Sort keys are computed batch-parallel into slot-per-row buffers,
  // then the permutation is sorted with the deterministic parallel
  // merge sort (thread_pool.h) — same result as a serial stable_sort
  // at every thread count.
  std::vector<std::vector<Value>> keys(rows->size());
  ORPHEUS_RETURN_NOT_OK(ParallelBatchFor(
      rows->size(), kScanBatchRows,
      [&](size_t begin, size_t end, size_t) -> Status {
        for (size_t i = begin; i < end; ++i) {
          keys[i].reserve(order_by.size());
          for (const OrderItem& item : order_by) {
            ORPHEUS_ASSIGN_OR_RETURN(Value v, eval.Eval(*item.expr, data, (*rows)[i]));
            keys[i].push_back(std::move(v));
          }
        }
        return Status::OK();
      }));
  std::vector<uint32_t> perm(rows->size());
  std::iota(perm.begin(), perm.end(), 0);
  ParallelStableSort(&perm, kScanBatchRows, [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < order_by.size(); ++k) {
      int cmp = keys[a][k].Compare(keys[b][k]);
      if (order_by[k].descending) cmp = -cmp;
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  std::vector<uint32_t> sorted(rows->size());
  for (size_t i = 0; i < perm.size(); ++i) sorted[i] = (*rows)[perm[i]];
  *rows = std::move(sorted);
  return Status::OK();
}

Status Executor::ApplyOrderByLimit(const SelectStmt& select, Chunk* out) {
  if (!select.order_by.empty()) {
    obs::ProfileOpScope op_scope("order_by");
    op_scope.AddRowsIn(out->num_rows());
    op_scope.AddRowsOut(out->num_rows());
    op_scope.AddBatches(NumScanBatches(out->num_rows()));
    std::vector<uint32_t> order(out->num_rows());
    std::iota(order.begin(), order.end(), 0);
    ORPHEUS_RETURN_NOT_OK(
        SortByOrderKeys(select.order_by, out->schema(), *out, &order));
    Chunk sorted(out->schema());
    sorted.GatherFrom(*out, order);
    *out = std::move(sorted);
  }
  if (select.limit >= 0 && static_cast<size_t>(select.limit) < out->num_rows()) {
    std::vector<uint32_t> head(static_cast<size_t>(select.limit));
    std::iota(head.begin(), head.end(), 0);
    Chunk limited(out->schema());
    limited.GatherFrom(*out, head);
    *out = std::move(limited);
  }
  return Status::OK();
}

}  // namespace orpheus::rel
