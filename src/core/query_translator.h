// Query translator (§2.2/§2.3): rewrites versioned SQL into plain SQL
// the backing database understands.
//
// Supported constructs:
//   SELECT ... FROM VERSION <vid> OF CVD <name> [AS alias], ...
//   SELECT ... FROM CVD <name> [AS alias], ...
//
// `VERSION v OF CVD c` becomes a derived table producing that
// version's records; `CVD c` becomes a derived table of all records of
// all versions with an extra `vid` column, enabling aggregates grouped
// by version and version-selection predicates (e.g. HAVING count(*) >
// 50 GROUP BY vid).
//
// Translation is purely textual (token splicing), mirroring how the
// paper's middleware rewrites the user's statement before handing it
// to PostgreSQL.

#ifndef ORPHEUS_CORE_QUERY_TRANSLATOR_H_
#define ORPHEUS_CORE_QUERY_TRANSLATOR_H_

#include <functional>
#include <string>

#include "common/status.h"
#include "core/version_graph.h"

namespace orpheus::core {

// Resolves the physical tables backing a CVD for one version (or for
// all versions when vid < 0). Returns {data_table, versioning_table}.
// OrpheusDB::ResolveTables is the engine's resolver: it routes a
// version to its partition's tables when one holds it.
using TableResolver = std::function<Result<std::pair<std::string, std::string>>(
    const std::string& cvd_name, VersionId vid)>;

// Rewrites `sql`, expanding the versioned constructs. Returns the SQL
// to execute against the backing database.
Result<std::string> TranslateVersionedSql(const std::string& sql,
                                          const TableResolver& resolver);

}  // namespace orpheus::core

#endif  // ORPHEUS_CORE_QUERY_TRANSLATOR_H_
