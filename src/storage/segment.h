// Checkpoint segment files: one table per file, self-checking.
//
// A segment holds exactly one relstore table
// (SnapshotCodec::EncodeTableSection), wrapped in a magic/version/CRC
// frame so a segment can be validated on its own. Segments are immutable once written: a checkpoint never
// rewrites a live segment, it writes a fresh file under a fresh name
// and retires the old one after the manifest commits (see manifest.h
// for the commit protocol and storage_manager.cc for the write path).
//
// File layout (the shared io_util.h frame):
//
//   [8B magic "ORPHSEG1"][u32 format version][u64 body length]
//   [u32 body crc32][body = table section]

#ifndef ORPHEUS_STORAGE_SEGMENT_H_
#define ORPHEUS_STORAGE_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "relstore/table.h"

namespace orpheus::storage {

inline constexpr char kSegmentMagic[9] = "ORPHSEG1";  // 8 bytes on disk

// Serializes one table into a segment file image.
std::string EncodeSegmentFile(const rel::Table& table);

// Validates `file` and decodes it into a standalone Table (not yet
// adopted by any Database). `path` is only used in error messages, so
// a failed Open can name the bad file. InvalidArgument on a foreign
// file or format-version mismatch, Internal on checksum/structure
// corruption — never a crash.
Result<std::unique_ptr<rel::Table>> DecodeSegmentFile(std::string_view file,
                                                      const std::string& path);

}  // namespace orpheus::storage

#endif  // ORPHEUS_STORAGE_SEGMENT_H_
