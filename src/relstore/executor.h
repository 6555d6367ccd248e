// Query executor: runs analyzed SELECT statements against the catalog.
//
// Plan shape (mirrors what PostgreSQL does for the paper's queries):
//   FROM inputs -> per-input pushed-down filters -> pairwise joins
//   (hash / merge / index-nested-loop, selectable) -> residual filter
//   -> aggregation or projection (incl. unnest expansion) -> DISTINCT
//   -> ORDER BY -> LIMIT.
//
// Parallel batched execution. Filter evaluation, computed projections,
// aggregate grouping, the join probe (hash and index-nested-loop share
// one loop), merge-join key sorts, and ORDER BY all operate on
// fixed-size row batches (kScanBatchRows) scheduled across the shared
// execution pool (common/thread_pool.h, the --threads knob). Batch
// boundaries depend only on the data, never on the thread count, and
// per-batch partial results (selection vectors, group ids, join match
// lists) are merged on the calling thread in batch order; the hash
// build is serial, and its chains list each key's rows in row order;
// each aggregate folds serially over the rows in row order; sorts use
// the deterministic parallel merge sort (ParallelStableSort), whose
// run/merge tree is likewise fixed by the input size alone. So results
// are bit-identical for every --threads setting, and a floating-point
// SUM/AVG is the row-order accumulation. With --threads=1 batches run
// serially in order on the caller.
// docs/QUERY_ENGINE.md spells the contract out in full.
//
// Thread-safety and ownership contracts:
//  - Executor is a thin stateless facade over Database*; it does not
//    own the database. One Executor serves one statement at a time:
//    RunSelect is NOT safe to call concurrently on the same Database
//    (it mutates catalog stats and, for INTO/DML, catalog state).
//    Intra-query parallelism is internal and invisible to callers.
//  - Worker threads only ever read the input chunks and write to
//    batch-private buffers; all merging happens on the calling thread.
//  - An INL join fetches the inner table's index (Table::Index, a
//    FlatJoinTable rebuilt there if DML invalidated it) on the calling
//    thread; workers then only probe that immutable table.
//
// The executor also charges a simple page-I/O model per operator (see
// table.h) so experiments can report modeled I/O next to wall time.

#ifndef ORPHEUS_RELSTORE_EXECUTOR_H_
#define ORPHEUS_RELSTORE_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "relstore/chunk.h"
#include "relstore/sql_ast.h"
#include "relstore/table.h"

namespace orpheus::rel {

class Database;
class Evaluator;

// Rows per scan batch. Fixed (not derived from the thread count) so
// that batch decomposition — and therefore every merged result,
// including float aggregate rounding — is identical no matter how many
// threads execute the batches. Inputs smaller than one batch take a
// single-batch path with zero scheduling overhead.
inline constexpr size_t kScanBatchRows = 2048;

// Join algorithm selection, as in the Appendix D.1 experiments.
enum class JoinMethod {
  kHash,             // build on the smaller side, probe the larger
  kMerge,            // sort-merge (sort skipped on clustered inputs)
  kIndexNestedLoop,  // probe a base-table index per outer row
};

// One logical execution counter: a per-Database atomic (the resettable
// oracle the benches and tests diff) that mirrors every bump into a
// process-wide metrics-registry counter, so the engine's `metrics`
// scrape sees executor activity without a second set of call sites.
class ExecStatCell {
 public:
  ExecStatCell(const char* metric_name, const char* help)
      : metric_(obs::GlobalMetrics().GetCounter(metric_name, help)) {}

  void operator+=(int64_t delta) {
    local_.fetch_add(delta, std::memory_order_relaxed);
    metric_->Inc(static_cast<uint64_t>(delta));
  }
  operator int64_t() const {  // NOLINT(google-explicit-constructor)
    return local_.load(std::memory_order_relaxed);
  }
  // Resets the local oracle only; registry counters are monotonic.
  void Reset() { local_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> local_{0};
  obs::Counter* metric_;
};

// Logical execution counters, cumulative until Reset(). Updated by
// each statement's coordinating thread (never from scan workers),
// after each operator. Relaxed atomics: concurrent read-only
// statements running under the engine's shared lock bump them from
// several coordinator threads at once; individual counters stay exact,
// cross-counter consistency is best-effort.
struct ExecStats {
  // rows examined by scans and probes
  ExecStatCell rows_scanned{"orpheus_exec_rows_scanned_total",
                            "Rows scanned by the executor."};
  // point lookups into table indexes
  ExecStatCell index_probes{
      "orpheus_exec_index_probes_total",
      "Primary-index probes issued by index-nested-loop joins."};
  // modeled 8 KiB page touches
  ExecStatCell pages_read{"orpheus_exec_pages_read_total",
                          "Logical pages touched by scans."};
  void Reset() {
    rows_scanned.Reset();
    index_probes.Reset();
    pages_read.Reset();
  }
};

class Executor {
 public:
  explicit Executor(Database* db) : db_(db) {}

  // Executes a SELECT (without INTO handling; Database applies INTO).
  Result<Chunk> RunSelect(const SelectStmt& select);

  // Evaluates the conjunction of `conjuncts` (already bound against
  // data's schema via `eval`) over every row of `data`, appending the
  // passing row ids to *sel in row order. Batches are fanned out over
  // the execution pool; on error, the lowest-batch error wins. UPDATE
  // and DELETE take their rows from it too.
  Status FilterSelection(const Evaluator& eval,
                         const std::vector<const Expr*>& conjuncts,
                         const Chunk& data, std::vector<uint32_t>* sel);

  // Evaluates a bound scalar expression for every selected row into
  // (*out)[i] (pre-sized by this call), batched over the pool.
  Status EvalScalarBatched(const Evaluator& eval, const Expr& expr,
                           const Chunk& data,
                           const std::vector<uint32_t>& sel,
                           std::vector<Value>* out);

 private:
  // A FROM-clause input: either a view onto a base table's chunk (no
  // copy) or an owned chunk from a subquery / pushed-down filter.
  struct Input {
    const Chunk* data = nullptr;
    std::unique_ptr<Chunk> owned;  // set iff materialized
    Schema schema;                 // alias-qualified names
    Table* base = nullptr;         // non-null iff unfiltered base table
    std::string alias;
  };

  Result<Input> ResolveTableRef(const TableRef& ref);

  // Applies the single-input conjuncts of `where` to each input
  // (predicate pushdown); materializes filtered inputs.
  Status PushDownFilters(std::vector<Input>* inputs,
                         std::vector<const Expr*>* conjuncts);

  // Joins inputs left-to-right into one chunk; consumes `conjuncts`
  // that serve as equi-join keys, leaving residual predicates.
  Result<Input> JoinInputs(std::vector<Input> inputs,
                           std::vector<const Expr*>* conjuncts);

  // Joins two inputs on the given equi-key pairs with the configured
  // JoinMethod (falling back to hash when the method's preconditions
  // don't hold — see docs/QUERY_ENGINE.md). The probe side runs
  // against a FlatJoinTable: a serial hash build keyed by the INT key
  // or, for any other keys, by row keys (row_key.h), or the inner base
  // table's index for INL. Probe, key sorts, and the output
  // materialization run batch-parallel on the pool;
  // per-batch match lists are concatenated in batch order so the
  // output row order matches the serial algorithms exactly. The
  // inputs are consumed: JoinPair, Aggregate and Project free their
  // input before their operator scope closes, so the teardown is
  // charged to the operator that consumed it.
  Result<Input> JoinPair(Input left, Input right,
                         const std::vector<std::pair<const Expr*, const Expr*>>& keys);

  // Grouped/global aggregation over the selected rows. Each batch
  // numbers its rows' groups by their typed key columns (row_key.h
  // GroupIds), and the batches' group-opening rows are numbered again
  // in batch order (group order = first occurrence in row order). Each
  // aggregate then folds its argument, read once as a typed column, over
  // the rows in row order into per-group arrays.
  Result<Chunk> Aggregate(const SelectStmt& select, Input input,
                          const std::vector<uint32_t>& sel);
  // Moves, rather than gathers, each direct column referenced once when
  // `sel` is the identity over an owned input.
  Result<Chunk> Project(const SelectStmt& select, Input input,
                        const std::vector<uint32_t>& sel);

  // Stably sorts the row ids in *rows (rows of `data`, whose columns
  // `schema` names) by the ORDER BY keys: keys are evaluated
  // batch-parallel, the permutation is sorted with the deterministic
  // parallel merge sort. Serves both ORDER BY placements: before the
  // projection (sorting the selection vector) and after it.
  Status SortByOrderKeys(const std::vector<OrderItem>& order_by,
                         const Schema& schema, const Chunk& data,
                         std::vector<uint32_t>* rows);

  Status ApplyHaving(const SelectStmt& select, Chunk* out);
  Status ApplyDistinct(Chunk* out);
  // ORDER BY over the output rows (SortByOrderKeys), then LIMIT.
  Status ApplyOrderByLimit(const SelectStmt& select, Chunk* out);

  Database* db_;
};

}  // namespace orpheus::rel

#endif  // ORPHEUS_RELSTORE_EXECUTOR_H_
