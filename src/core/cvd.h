// Cvd: a collaborative versioned dataset (§2.1 of the paper).
//
// A CVD corresponds to one relation and implicitly contains many
// versions of it. This class is the middleware's record manager +
// version manager + provenance manager for a single CVD:
//
//  * record manager  — resolves staged rows to immutable records,
//    assigning fresh rids to added/modified rows (the paper's
//    "no cross-version diff" rule: staged rows are compared against
//    the parent versions only, never all ancestors);
//  * version manager — maintains the metadata table, the attribute
//    table (single-pool schema evolution, §3.3), and the in-memory
//    version graph with shared-record edge weights;
//  * provenance manager — tracks which staged tables derive from
//    which versions, so commit can infer parents.
//
// The backing database never learns about any of this; it only sees
// ordinary tables and SQL.

#ifndef ORPHEUS_CORE_CVD_H_
#define ORPHEUS_CORE_CVD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/data_model.h"
#include "core/version_graph.h"
#include "relstore/database.h"

namespace orpheus::storage {
class SnapshotCodec;
}

namespace orpheus::core {

struct CvdOptions {
  DataModelKind model = DataModelKind::kSplitByRlist;
  // Relation primary key attributes; may be empty. Enforced per
  // version (not across versions), and used for precedence-order
  // conflict resolution during multi-version checkout.
  std::vector<std::string> primary_key;
};

// One attribute-table entry (Figure 5 of the paper). Any change to an
// attribute's properties creates a new entry.
struct AttributeEntry {
  int64_t attr_id;
  std::string name;
  rel::DataType type;
};

// A staged table resolved to records. The first six fields are what
// the commit WAL record carries, so replay needs no staging area; the
// rest is derived state that replay recomputes.
struct ResolvedCommit {
  std::vector<VersionId> parents;  // precedence order
  int64_t checkout_time = 0;       // the staged table's checkout time
  int64_t commit_time = 0;         // the CVD's logical clock after commit
  rel::Schema staged_schema;     // the staged data attributes (no rid)
  std::vector<RecordId> rids;    // one per committed row, staged order
  rel::Chunk new_records;        // rid + data attributes, rid ascending
  std::vector<int64_t> attr_ids;          // the version's attributes
  std::vector<rel::Chunk> parent_rows;    // each parent's VersionRows
};

// Provenance of an uncommitted staged table, and the parents' rows
// its checkout built. The CVD's staging area is the one record of
// which staged tables exist and who checked them out.
struct StagedTableInfo {
  std::string table_name;
  std::vector<VersionId> parents;  // precedence order
  int64_t checkout_time = 0;       // the logical clock at checkout
  // The EngineApi session that checked the table out: its own tables
  // are found first and discarded when it closes. 0 for a direct
  // engine call and for an entry a checkpoint restored. Not persisted.
  uint64_t session = 0;
  // Each parent's VersionRows as checkout read them, in precedence
  // order, or empty: a merging checkout moves its per-version rows in,
  // a single checkout copies its full-attribute rows unless a
  // partition served them. Commit resolves against these rows instead of
  // materializing the parents again. Not persisted.
  std::vector<rel::Chunk> parent_rows;
};

class Cvd {
 public:
  // Creates a new, empty CVD with the given data-attribute schema.
  static Result<std::unique_ptr<Cvd>> Create(rel::Database* db,
                                             const std::string& name,
                                             rel::Schema data_schema,
                                             CvdOptions options);

  // --- Version-control verbs ----------------------------------------

  // Creates the initial version from raw data rows (schema must match
  // the data attributes; no rid column). Returns the new vid.
  Result<VersionId> InitVersion(const rel::Chunk& rows, const std::string& message);

  // Materializes one or more versions into `table_name`. With several
  // vids this is a merging checkout: records are added in precedence
  // order and a record is skipped if its primary key was already
  // emitted (§2.2). `session` is recorded in the staging entry.
  // Checkout reads the logical clock without ticking it: checkouts are
  // not logged, so only commits move the clock replay reproduces.
  Status Checkout(const std::vector<VersionId>& vids, const std::string& table_name,
                  uint64_t session = 0);

  // Commits a staged table as a new version; parents come from the
  // table's checkout provenance. Returns the new vid. This is
  // ApplyCommit(ResolveCommit(...)); OrpheusDB::Commit runs the two
  // halves itself so it can log the resolved commit.
  Result<VersionId> Commit(const std::string& table_name, const std::string& message);

  // Resolve: turns a staged table into records. Takes the parents and
  // checkout time from the table's provenance and the commit time from
  // the logical clock. Reconciles the table's schema with the CVD
  // (which may ALTER the pool tables), checks the primary key, and
  // gives each staged row the rid of the first equal record in parent
  // order, then row order — or a fresh rid, continuing from
  // total_records(), if no parent holds an equal record (the paper's
  // no-cross-version-diff rule). A parent's row order is its rows as
  // checked out. The parents' rows come from ParentRows, which hands
  // over the rows checkout kept.
  Result<ResolvedCommit> ResolveCommit(const std::string& table_name);

  // Apply: installs a resolved commit as the next version of
  // `commit.parents`. Checks the commit first: the commit time must
  // follow the logical clock and the checkout time, the new records
  // must have the record schema and rids that continue from
  // total_records() in row order, and every other rid must belong to a
  // parent. If the data model reads the committed content
  // (DataModel::ReadsContent), rebuilds it from the parents' records
  // plus the new records; the staged table itself is never read. Then
  // adds the version, its graph edges and its metadata row, sets the
  // logical clock to the commit time, and drops `table_name` and its
  // staging entry if `table_name` is staged.
  Result<VersionId> ApplyCommit(const std::string& table_name,
                                const std::string& message,
                                const ResolvedCommit& commit);

  // WAL replay of a logged commit (the first six fields of `commit`):
  // reconciles the logged schema (to the same attribute ids as the live
  // run), reads the parents' rows through VersionRows, and applies the
  // logged rids and new records without resolving anything. A staged
  // table of that name exists only if a checkpoint restored it, and is
  // consumed as the live commit did; no other table is touched.
  Result<VersionId> ReplayCommit(const std::string& table_name,
                                 const std::string& message,
                                 ResolvedCommit commit);

  // Records in `a` but not in `b`.
  Result<rel::Chunk> Diff(VersionId a, VersionId b);

  // Discards a staged table without committing.
  Status DiscardStaged(const std::string& table_name);

  // --- Introspection --------------------------------------------------

  const std::string& name() const { return name_; }
  const VersionGraph& graph() const { return graph_; }
  DataModel* model() { return model_.get(); }
  const std::vector<std::string>& primary_key() const { return primary_key_; }
  const std::vector<AttributeEntry>& attributes() const { return attributes_; }

  // Attribute ids carried by one version (metadata table content).
  Result<std::vector<int64_t>> VersionAttributes(VersionId vid) const;

  VersionId latest_version() const { return next_vid_ - 1; }
  int64_t total_records() const { return next_rid_; }
  int64_t StorageBytes() const { return model_->StorageBytes(); }

  const std::map<std::string, StagedTableInfo>& staged_tables() const {
    return staged_;
  }

  // Name of this CVD's metadata table in the backing database.
  std::string MetadataTableName() const { return name_ + "_meta"; }
  std::string AttributeTableName() const { return name_ + "_attr"; }

 private:
  // The snapshot codec reconstructs a Cvd around already-restored
  // backing tables, bypassing Create's table DDL.
  friend class storage::SnapshotCodec;

  Cvd(rel::Database* db, std::string name, rel::Schema data_schema,
      CvdOptions options);

  // Materializes a single version into `table_name`: the model's
  // VersionRows, projected in memory to the version's attribute set and
  // adopted as the table. Appends the version's rows to `parent_rows`
  // unless a partition served them.
  Status CheckoutSingle(VersionId vid, const std::string& table_name,
                        std::vector<rel::Chunk>* parent_rows);

  // Applies schema differences between a staged table and the CVD
  // (new / widened attributes), returning this version's attribute ids.
  Result<std::vector<int64_t>> ReconcileSchema(const rel::Schema& staged_schema);

  // Each parent's rows (rid + data attributes), in precedence order:
  // `kept`, the rows a checkout kept, when it holds one chunk per
  // parent and every chunk still has the record schema; otherwise each
  // parent's VersionRows (in replay, after a checkpoint restore, a
  // partition-served checkout, schema evolution since the checkout, or
  // an earlier resolve that took the rows).
  Result<std::vector<rel::Chunk>> ParentRows(
      const std::vector<VersionId>& parents, std::vector<rel::Chunk> kept);

  // Registers an attribute entry and returns its id.
  int64_t AddAttributeEntry(const std::string& name, rel::DataType type);

  Status AppendMetadataRow(VersionId vid, const std::vector<VersionId>& parents,
                           int64_t checkout_time, int64_t commit_time,
                           const std::string& message,
                           const std::vector<int64_t>& attr_ids);

  rel::Database* db_;
  std::string name_;
  std::vector<std::string> primary_key_;
  std::unique_ptr<DataModel> model_;
  VersionGraph graph_;

  std::vector<AttributeEntry> attributes_;
  // name -> current attribute id (the live entry for that name).
  std::map<std::string, int64_t> live_attrs_;
  std::map<VersionId, std::vector<int64_t>> version_attrs_;

  std::map<std::string, StagedTableInfo> staged_;

  RecordId next_rid_ = 0;
  VersionId next_vid_ = 1;
  int64_t logical_clock_ = 0;
};

}  // namespace orpheus::core

#endif  // ORPHEUS_CORE_CVD_H_
