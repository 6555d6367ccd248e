#include "storage/segment.h"

#include "storage/io_util.h"
#include "storage/snapshot.h"

namespace orpheus::storage {

std::string EncodeSegmentFile(const rel::Table& table) {
  BinaryWriter body;
  SnapshotCodec::EncodeTableSection(table, &body);
  return EncodeFramedFile(kSegmentMagic, body.data());
}

Result<std::unique_ptr<rel::Table>> DecodeSegmentFile(std::string_view file,
                                                      const std::string& path) {
  ORPHEUS_ASSIGN_OR_RETURN(std::string_view body,
                           DecodeFramedFile(file, kSegmentMagic, "segment", path));
  BinaryReader r(body);
  ORPHEUS_ASSIGN_OR_RETURN(std::unique_ptr<rel::Table> table,
                           SnapshotCodec::DecodeTableObject(&r));
  if (!r.ok() || r.remaining() != 0) {
    return Status::Internal("segment has trailing bytes (corrupt file " + path +
                            ")");
  }
  return table;
}

}  // namespace orpheus::storage
