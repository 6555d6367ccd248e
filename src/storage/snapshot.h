// Engine image oracle + per-unit codecs.
//
// The per-unit codecs serialize the engine state that checkpoints
// persist: one relstore table per segment (payload columns, null
// bitmaps, int-arrays, primary keys, declared indexes, clustering
// markers), and the engine metadata the MANIFEST embeds (user
// registry, every CVD's attribute pool, per-version attribute sets,
// staging area, version graph and id counters, partition-store
// wiring). Row-set codecs are shared with the WAL records that carry
// chunks.
//
// Encode() concatenates every table section and the metadata into one
// deterministic byte image of the whole engine. Nothing decodes it:
// tests and benches compare two engines by comparing their images.
//
// The codecs guarantee bit-identical restores: doubles round-trip as
// raw bits, strings as raw bytes, and a materialized-but-all-valid
// null bitmap is rematerialized so storage accounting matches too.

#ifndef ORPHEUS_STORAGE_SNAPSHOT_H_
#define ORPHEUS_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "relstore/chunk.h"
#include "relstore/table.h"
#include "storage/io_util.h"

namespace orpheus::core {
class Cvd;
class OrpheusDB;
}

namespace orpheus::storage {

// Row-set codecs shared between table sections and WAL records that
// carry chunks (init / commit).
void EncodeSchema(const rel::Schema& schema, BinaryWriter* w);
Result<rel::Schema> DecodeSchema(BinaryReader* r);
void EncodeChunk(const rel::Chunk& chunk, BinaryWriter* w);
Result<rel::Chunk> DecodeChunk(BinaryReader* r);

class SnapshotCodec {
 public:
  // The whole-engine image: `last_lsn`, the table count, every table
  // section in table order, then the metadata.
  static std::string Encode(core::OrpheusDB& db, uint64_t last_lsn);

  // --- Per-unit sections (the segment/manifest codec) --------------------

  // One table's serialized form: name, primary key, clustering marker,
  // declared indexes, columnar payload. A segment file wraps these.
  static void EncodeTableSection(const rel::Table& table, BinaryWriter* w);
  // Decodes one table section into a standalone Table object (not yet
  // adopted by any Database) — segment restore decodes these in
  // parallel, then adopts sequentially in manifest order.
  static Result<std::unique_ptr<rel::Table>> DecodeTableObject(BinaryReader* r);

  // Engine metadata minus the tables: user registry + current login,
  // every CVD, every partition store. Small (no row payloads), so the
  // v2 manifest embeds it whole — one atomic manifest replace commits
  // tables and metadata together. DecodeMeta requires the backing
  // tables to be present already (CVD/partition-store restore rebuilds
  // derived state from them).
  static void EncodeMeta(core::OrpheusDB& db, BinaryWriter* w);
  static Status DecodeMeta(BinaryReader* r, core::OrpheusDB* db);

 private:
  // Members (not free functions) because they exercise the friendship
  // Cvd and OrpheusDB grant to this class.
  static void EncodeCvd(const core::Cvd& cvd, BinaryWriter* w);
  static Status DecodeCvd(BinaryReader* r, core::OrpheusDB* db);
  static Status DecodePartitionStore(BinaryReader* r, core::OrpheusDB* db);
};

}  // namespace orpheus::storage

#endif  // ORPHEUS_STORAGE_SNAPSHOT_H_
