#include "storage/manifest.h"

#include "storage/io_util.h"

namespace orpheus::storage {

std::string EncodeManifest(const Manifest& manifest) {
  BinaryWriter body;
  body.PutU64(manifest.sequence);
  body.PutU64(manifest.last_lsn);
  body.PutU64(manifest.next_segment_id);
  body.PutU32(static_cast<uint32_t>(manifest.segments.size()));
  for (const ManifestSegment& seg : manifest.segments) {
    body.PutString(seg.table);
    body.PutString(seg.file);
    body.PutU64(seg.size);
    body.PutU32(seg.crc);
  }
  body.PutString(manifest.meta);
  return EncodeFramedFile(kManifestMagic, body.data());
}

Result<Manifest> DecodeManifest(std::string_view file,
                                const std::string& path) {
  ORPHEUS_ASSIGN_OR_RETURN(
      std::string_view body_bytes,
      DecodeFramedFile(file, kManifestMagic, "manifest", path));
  Manifest manifest;
  BinaryReader r(body_bytes);
  manifest.sequence = r.GetU64();
  manifest.last_lsn = r.GetU64();
  manifest.next_segment_id = r.GetU64();
  uint32_t num_segments = r.GetU32();
  for (uint32_t i = 0; i < num_segments && r.ok(); ++i) {
    ManifestSegment seg;
    seg.table = r.GetString();
    seg.file = r.GetString();
    seg.size = r.GetU64();
    seg.crc = r.GetU32();
    manifest.segments.push_back(std::move(seg));
  }
  manifest.meta = r.GetString();
  if (!r.ok() || r.remaining() != 0) {
    return Status::Internal("manifest structure invalid (corrupt file " +
                            path + ")");
  }
  return manifest;
}

}  // namespace orpheus::storage
