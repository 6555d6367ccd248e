// The checkpoint MANIFEST: the single commit point of the v2 storage
// format (RocksDB's MANIFEST idiom, flattened to one atomic file).
//
// A manifest names every live segment with its exact size and
// whole-file CRC, records the WAL watermark the checkpoint covers,
// and embeds the (small) engine metadata — user registry, CVDs,
// partition-store wiring — so that atomically replacing the MANIFEST
// commits tables and metadata together. Segment files not named by
// the current manifest are orphans and may be deleted at any time;
// segment files named by it are immutable.
//
// File layout (the shared io_util.h frame):
//
//   [8B magic "ORPHMANI"][u32 format version][u64 body length]
//   [u32 body crc32][body]
//
// body:
//   u64 sequence          monotonic checkpoint number (diagnostics)
//   u64 last_lsn          WAL watermark: replay only records above it
//   u64 next_segment_id   fresh-name allocator floor (never reused)
//   u32 num_segments
//     { string table, string file, u64 size, u32 crc } per segment,
//     in table order
//   string meta           SnapshotCodec::EncodeMeta bytes

#ifndef ORPHEUS_STORAGE_MANIFEST_H_
#define ORPHEUS_STORAGE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace orpheus::storage {

inline constexpr char kManifestMagic[9] = "ORPHMANI";  // 8 bytes on disk

struct ManifestSegment {
  std::string table;  // relstore table name
  std::string file;   // file name under <dir>/segments/
  uint64_t size = 0;  // exact file size in bytes
  uint32_t crc = 0;   // CRC-32 of the whole file image
};

struct Manifest {
  uint64_t sequence = 0;
  uint64_t last_lsn = 0;
  uint64_t next_segment_id = 1;
  std::vector<ManifestSegment> segments;
  std::string meta;
};

std::string EncodeManifest(const Manifest& manifest);

// Validates `file` and decodes it. `path` is only used in error
// messages so a failed Open can name the bad file. InvalidArgument on
// a foreign file or format-version mismatch, Internal on
// checksum/structure corruption — never a crash.
Result<Manifest> DecodeManifest(std::string_view file,
                                const std::string& path);

}  // namespace orpheus::storage

#endif  // ORPHEUS_STORAGE_MANIFEST_H_
